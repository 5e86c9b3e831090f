type step = {
  pc : int;
  insn : Gb_riscv.Insn.t;
  exit_cond : (Gb_riscv.Insn.branch_cond * int) option;
}

type t = { entry : int; steps : step list; fall_pc : int }

let length t = List.length t.steps

let pp ppf t =
  Format.fprintf ppf "guest trace @@0x%x -> 0x%x@." t.entry t.fall_pc;
  List.iter
    (fun s ->
      Format.fprintf ppf "  0x%x: %a" s.pc Gb_riscv.Insn.pp s.insn;
      (match s.exit_cond with
      | Some (_, target) -> Format.fprintf ppf "   ; exits to 0x%x" target
      | None -> ());
      Format.fprintf ppf "@.")
    t.steps
