(** A guest trace: the linearised sequence of guest instructions selected
    by the trace constructor, before IR construction.

    Conditional branches are normalised so that {e falling through} stays
    on the trace: [exit_cond] holds the (possibly negated) condition under
    which execution leaves the trace and the guest pc it resumes at. *)

type step = {
  pc : int;
  insn : Gb_riscv.Insn.t;
  exit_cond : (Gb_riscv.Insn.branch_cond * int) option;
      (** for conditional branches only *)
}

type t = {
  entry : int;  (** guest pc of the first instruction *)
  steps : step list;
  fall_pc : int;  (** guest pc reached when the whole trace executes *)
}

val length : t -> int

val pp : Format.formatter -> t -> unit
