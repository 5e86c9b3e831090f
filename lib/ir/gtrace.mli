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

val equal : t -> t -> bool
(** Same entry, same fall-through pc and, step by step, the same pc,
    instruction ({!Gb_riscv.Insn.equal}) and exit condition; no
    [caml_compare]. Two traces formed at one entry that are equal lower
    to the same code. *)

val pp : Format.formatter -> t -> unit
