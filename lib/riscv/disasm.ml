type line = { addr : int; word : int; text : string; target : int option }

let target_of addr = function
  | Insn.Branch (_, _, _, off) | Insn.Jal (_, off) -> Some (addr + off)
  | Insn.Op_imm _ | Insn.Op _ | Insn.Lui _ | Insn.Auipc _ | Insn.Load _
  | Insn.Store _ | Insn.Jalr _ | Insn.Ecall | Insn.Fence | Insn.Rdcycle _
  | Insn.Cflush _ ->
    None

let disassemble mem ~addr ~len =
  let addr = addr land lnot 3 in
  let n = len / 4 in
  List.init n (fun i ->
      let a = addr + (4 * i) in
      (* read as data: a listing covers data words too *)
      let word = Mem.load_int mem ~addr:a ~size:4 in
      match Decode.decode word with
      | insn ->
        { addr = a; word; text = Insn.to_string insn; target = target_of a insn }
      | exception Decode.Illegal _ ->
        { addr = a; word; text = Printf.sprintf ".word 0x%08x" word; target = None })

let labels_by_addr symbols =
  let table = Hashtbl.create 16 in
  Option.iter
    (Hashtbl.iter (fun name addr -> Hashtbl.replace table addr name))
    symbols;
  table

let pp_program ?symbols ppf lines =
  let labels = labels_by_addr symbols in
  List.iter
    (fun l ->
      (match Hashtbl.find_opt labels l.addr with
      | Some name -> Format.fprintf ppf "%s:@." name
      | None -> ());
      Format.fprintf ppf "  %6x:  %08x  %s" l.addr l.word l.text;
      (match l.target with
      | Some t -> (
        match Hashtbl.find_opt labels t with
        | Some name -> Format.fprintf ppf "   # -> %s (0x%x)" name t
        | None -> Format.fprintf ppf "   # -> 0x%x" t)
      | None -> ());
      Format.fprintf ppf "@.")
    lines

let dump (program : Asm.program) =
  let mem = Mem.create ~size:(program.Asm.base + Bytes.length program.Asm.image) in
  Asm.load mem program;
  let lines =
    disassemble mem ~addr:program.Asm.base ~len:(Bytes.length program.Asm.image)
  in
  Format.asprintf "%a" (pp_program ~symbols:program.Asm.symbols) lines
