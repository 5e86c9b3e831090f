type step = {
  pc : int;
  insn : Gb_riscv.Insn.t;
  exit_cond : (Gb_riscv.Insn.branch_cond * int) option;
}

type t = { entry : int; steps : step list; fall_pc : int }

let length t = List.length t.steps

(* annotated: an exit condition left polymorphic would compare with
   [caml_equal] *)
let equal_exit_cond (a : (Gb_riscv.Insn.branch_cond * int) option) b =
  match (a, b) with
  | None, None -> true
  | Some (cond, target), Some (cond', target') ->
    cond = cond' && target = target'
  | Some _, None | None, Some _ -> false

let equal_step a b =
  a.pc = b.pc
  && Gb_riscv.Insn.equal a.insn b.insn
  && equal_exit_cond a.exit_cond b.exit_cond

let equal a b =
  a.entry = b.entry && a.fall_pc = b.fall_pc
  && List.equal equal_step a.steps b.steps

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
