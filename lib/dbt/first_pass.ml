type result = { trace : Gb_vliw.Vinsn.trace; branch_pc : int option }

exception Untranslatable of string

let max_block_insns = 128

let sext32 v = Int64.of_int32 (Int64.to_int32 v)

let translate ~mem ~entry =
  let open Gb_vliw.Vinsn in
  let bundles = ref [] in
  let stubs = ref [] in
  let n_stubs = ref 0 in
  let emit op = bundles := [| op |] :: !bundles in
  (* Sequential ids in emission (= guest program) order so the leakage
     audit's commit-boundary rule works on first-pass code too; with one
     op per bundle nothing ever executes past a taken exit anyway. *)
  let next_id = ref 0 in
  let next () =
    let i = !next_id in
    incr next_id;
    i
  in
  let add_stub ?(exit_id = max_int) target_pc =
    stubs := make_stub ~exit_id ~commits:[] ~target_pc () :: !stubs;
    incr n_stubs;
    !n_stubs - 1
  in
  let branch_pc = ref None in
  let count = ref 0 in
  let finish_at pc = emit (Exit { stub = add_stub ~exit_id:(next ()) pc }) in
  let rec walk pc =
    if !count >= max_block_insns then finish_at pc
    else
      match
        Gb_riscv.Decode.decode (Gb_riscv.Mem.load_insn_word mem ~addr:pc)
      with
      | exception (Gb_riscv.Decode.Illegal _ | Gb_riscv.Mem.Fault _) ->
        if !count = 0 then raise (Untranslatable "no decodable instruction")
        else finish_at pc
      | insn -> (
        incr count;
        match insn with
        | Gb_riscv.Insn.Op_imm (op, rd, rs1, imm) ->
          emit
            (Alu
               { op = Gb_ir.Build.oprr_of_opri op; dst = rd; a = R rs1;
                 b = I (Int64.of_int imm) });
          walk (pc + 4)
        | Gb_riscv.Insn.Op (op, rd, rs1, rs2) ->
          emit (Alu { op; dst = rd; a = R rs1; b = R rs2 });
          walk (pc + 4)
        | Gb_riscv.Insn.Lui (rd, imm) ->
          emit
            (Alu
               { op = Gb_riscv.Insn.ADD; dst = rd;
                 a = I (sext32 (Int64.of_int (imm lsl 12))); b = I 0L });
          walk (pc + 4)
        | Gb_riscv.Insn.Auipc (rd, imm) ->
          emit
            (Alu
               { op = Gb_riscv.Insn.ADD; dst = rd;
                 a =
                   I (Int64.add (Int64.of_int pc)
                        (sext32 (Int64.of_int (imm lsl 12))));
                 b = I 0L });
          walk (pc + 4)
        | Gb_riscv.Insn.Load (w, unsigned, rd, rs1, off) ->
          emit
            (Load
               { w; unsigned; dst = rd; base = R rs1; off; spec = None;
                 id = next (); pc; hoisted = false });
          walk (pc + 4)
        | Gb_riscv.Insn.Store (w, rs2, rs1, off) ->
          emit (Store { w; src = R rs2; base = R rs1; off; id = next (); pc });
          walk (pc + 4)
        | Gb_riscv.Insn.Rdcycle rd ->
          emit (Rdcycle { dst = rd });
          walk (pc + 4)
        | Gb_riscv.Insn.Cflush rs1 ->
          emit (Cflush { base = R rs1; off = 0; id = next (); pc });
          walk (pc + 4)
        | Gb_riscv.Insn.Fence ->
          emit Fence;
          walk (pc + 4)
        | Gb_riscv.Insn.Branch (cond, rs1, rs2, off) ->
          branch_pc := Some pc;
          let bid = next () in
          emit
            (Branch
               { cond; a = R rs1; b = R rs2;
                 stub = add_stub ~exit_id:bid (pc + off) });
          finish_at (pc + 4)
        | Gb_riscv.Insn.Jal (rd, off) ->
          if rd <> 0 then
            emit
              (Alu
                 { op = Gb_riscv.Insn.ADD; dst = rd;
                   a = I (Int64.of_int (pc + 4)); b = I 0L });
          finish_at (pc + off)
        | Gb_riscv.Insn.Jalr _ | Gb_riscv.Insn.Ecall ->
          count := !count - 1;
          if !count = 0 then
            raise (Untranslatable "block starts with jalr/ecall")
          else finish_at pc)
  in
  walk entry;
  {
    trace =
      {
        entry_pc = entry;
        bundles = Array.of_list (List.rev !bundles);
        stubs = Array.of_list (List.rev !stubs);
        n_regs = guest_regs;
        guest_insns = !count;
        meta = empty_meta;
        decoded = Undecoded;
      };
    branch_pc = !branch_pc;
  }
