type item =
  | Label of string
  | Insn of Insn.t
  | Branch_to of Insn.branch_cond * Reg.t * Reg.t * string
  | Jal_to of Reg.t * string
  | La of Reg.t * string
  | Li of Reg.t * int64
  | Dword of int64 list
  | Dbyte of int list
  | Dstring of string
  | Space of int
  | Align of int

type program = {
  base : int;
  image : bytes;
  symbols : (string, int) Hashtbl.t;
  entry : int;
  text_end : int;
}

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let sign_extend bits v =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

(* Split a signed 32-bit value into (lui hi20, addiw lo12) such that
   sext32 ((hi lsl 12) + lo) = v, relying on addiw's 32-bit wrap. *)
let hi_lo v =
  let lo = sign_extend 12 (v land 0xfff) in
  let hi = ((v - lo) lsr 12) land 0xfffff in
  (hi, lo)

let li_items rd v =
  if rd = 0 then error "li to x0";
  if Int64.compare v (Int64.of_int32 Int32.min_int) < 0
     || Int64.compare v (Int64.of_int32 Int32.max_int) > 0
  then error "li: constant %Ld does not fit in 32 bits" v;
  let v = Int64.to_int v in
  if v >= -2048 && v < 2048 then [ Insn.Op_imm (Insn.ADDI, rd, 0, v) ]
  else
    let hi, lo = hi_lo v in
    [ Insn.Lui (rd, hi); Insn.Op_imm (Insn.ADDIW, rd, rd, lo) ]

let la_items rd addr =
  let hi, lo = hi_lo addr in
  [ Insn.Lui (rd, hi); Insn.Op_imm (Insn.ADDIW, rd, rd, lo) ]

let is_insn = function
  | Insn _ | Branch_to _ | Jal_to _ | La _ | Li _ -> true
  | Label _ | Dword _ | Dbyte _ | Dstring _ | Space _ | Align _ -> false

(* Text runs to the end of the last instruction: data there would be
   writable code. *)
let rec check_layout = function
  | [] -> ()
  | (Dword _ | Dbyte _ | Dstring _ | Space _) :: rest ->
    if List.exists is_insn rest then
      error "data before an instruction: data must follow all code"
  | _ :: rest -> check_layout rest

let alignment_of = function
  | Insn _ | Branch_to _ | Jal_to _ | La _ | Li _ -> 4
  | Dword _ -> 8
  | Label _ | Dbyte _ | Dstring _ | Space _ -> 1
  | Align n -> n

let item_size = function
  | Label _ | Align _ -> 0
  | Insn _ | Branch_to _ | Jal_to _ -> 4
  | La _ -> 8
  | Li (rd, v) -> 4 * List.length (li_items rd v)
  | Dword vs -> 8 * List.length vs
  | Dbyte bs -> List.length bs
  | Dstring s -> String.length s
  | Space n -> n

let align_up off n = (off + n - 1) land lnot (n - 1)

(* Pass 1: symbol table. Labels bind to the (aligned) start of the next
   sized item, or to the aligned end of the program. *)
let compute_symbols ~base items =
  let symbols = Hashtbl.create 64 in
  let bind pending addr =
    List.iter
      (fun name ->
        if Hashtbl.mem symbols name then error "duplicate label %s" name;
        Hashtbl.add symbols name addr)
      pending
  in
  let rec go off pending = function
    | [] -> bind pending (base + off)
    | Label name :: rest -> go off (name :: pending) rest
    | item :: rest ->
      let off = align_up off (alignment_of item) in
      bind pending (base + off);
      go (off + item_size item) [] rest
  in
  go 0 [] items;
  symbols

let emit_insn buf insn =
  let w = Encode.encode insn in
  Buffer.add_char buf (Char.chr (w land 0xff));
  Buffer.add_char buf (Char.chr ((w lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((w lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((w lsr 24) land 0xff))

let assemble ?(base = 0x1000) items =
  if base land 3 <> 0 then error "base address must be 4-aligned";
  check_layout items;
  let symbols = compute_symbols ~base items in
  let resolve name =
    match Hashtbl.find_opt symbols name with
    | Some addr -> addr
    | None -> error "undefined label %s" name
  in
  let buf = Buffer.create 1024 in
  let pad_to off =
    while Buffer.length buf < off do
      Buffer.add_char buf '\000'
    done
  in
  let text_end = ref base in
  let emit_item off item =
    let off = align_up off (alignment_of item) in
    pad_to off;
    let pc = base + off in
    if is_insn item then text_end := pc + item_size item;
    (match item with
    | Label _ | Align _ -> ()
    | Insn insn -> emit_insn buf insn
    | Branch_to (cond, rs1, rs2, name) ->
      let delta = resolve name - pc in
      if delta < -4096 || delta > 4094 then
        error "branch to %s out of range (%d bytes)" name delta;
      emit_insn buf (Insn.Branch (cond, rs1, rs2, delta))
    | Jal_to (rd, name) ->
      let delta = resolve name - pc in
      emit_insn buf (Insn.Jal (rd, delta))
    | La (rd, name) -> List.iter (emit_insn buf) (la_items rd (resolve name))
    | Li (rd, v) -> List.iter (emit_insn buf) (li_items rd v)
    | Dword vs ->
      List.iter
        (fun v ->
          for i = 0 to 7 do
            Buffer.add_char buf
              (Char.chr
                 (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
          done)
        vs
    | Dbyte bs -> List.iter (fun b -> Buffer.add_char buf (Char.chr (b land 0xff))) bs
    | Dstring s -> Buffer.add_string buf s
    | Space n -> Buffer.add_string buf (String.make n '\000'));
    off + item_size item
  in
  let (_ : int) = List.fold_left emit_item 0 items in
  { base; image = Buffer.to_bytes buf; symbols; entry = base;
    text_end = !text_end }

let load mem program =
  Mem.blit_bytes mem ~addr:program.base program.image;
  Mem.set_text mem ~lo:program.base ~hi:program.text_end

let symbol program name =
  match Hashtbl.find_opt program.symbols name with
  | Some addr -> addr
  | None -> error "undefined label %s" name
