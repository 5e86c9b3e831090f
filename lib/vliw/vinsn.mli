(** The VLIW target ISA produced by the DBT engine.

    Registers [0..31] are the guest architectural registers; indices [32+]
    are {e hidden} registers — scratch space invisible to the guest ISA, the
    paper's "register not defined in the ISA" used to park speculative
    results. A translated {!trace} consists of wide {!bundle}s executed one
    per cycle plus {e exit stubs}: compensation code that commits the
    architectural register state of an exit point before resuming the
    guest at [target_pc]. *)

type reg = int

val guest_regs : int
(** Number of architectural registers (32); hidden registers start here. *)

type operand = R of reg | I of int64

type op =
  | Nop
  | Alu of { op : Gb_riscv.Insn.oprr; dst : reg; a : operand; b : operand }
  | Load of {
      w : Gb_riscv.Insn.width;
      unsigned : bool;
      dst : reg;
      base : operand;
      off : int;
      spec : int option;
          (** [Some tag]: speculative load that allocates MCB entry [tag]
              (the paper's distinct opcode for MCB-checked loads) *)
      id : int;
          (** DFG node id — original guest program order, compared against
              the taken exit stub's [exit_id] by the leakage audit to
              decide whether this access was architecturally committed *)
      pc : int;  (** originating guest pc (audit attribution) *)
      hoisted : bool;
          (** moved above a branch it followed in program order *)
    }
  | Store of {
      w : Gb_riscv.Insn.width;
      src : operand;
      base : operand;
      off : int;
      id : int;
      pc : int;
    }
  | Branch of {
      cond : Gb_riscv.Insn.branch_cond;
      a : operand;
      b : operand;
      stub : int;  (** side exit taken when the condition holds *)
    }
  | Chk of { tag : int; stub : int }
      (** MCB check: side exit (rollback) when entry [tag] conflicted *)
  | Mv of { dst : reg; src : operand }
  | Rdcycle of { dst : reg }
  | Cflush of { base : operand; off : int; id : int; pc : int }
  | Fence  (** scheduling barrier; timing no-op at execution *)
  | Exit of { stub : int }  (** unconditional end of trace *)

type bundle = op array

(** Per-translation countermeasure / speculation statistics: the engine
    folds them into its statistics and events at install, and a run's
    report shows them per region. *)
type meta = {
  spec_loads : int;  (** loads translated as MCB-speculative *)
  branch_spec_loads : int;  (** loads free to hoist above a branch *)
  spectre_patterns : int;  (** poisoned-address speculative loads found *)
  constrained_loads : int;  (** loads de-speculated by the mitigation *)
  fences_inserted : int;
  cut_protects : int;
      (** min-cut repairs realized in this trace (dep re-inserts +
          masks): the pipeline attributes its issue bubbles to the
          [cut-protect] cause instead of lost ILP when nonzero *)
}

val empty_meta : meta

type decoded = ..
(** The executable form of a trace's bundles. {!Pipeline} adds the one
    real constructor and alone reads it; the type is extensible because
    the decoded form is closures over a [Machine.t], and {!Machine}
    depends on this module. *)

type decoded += Undecoded  (** not decoded yet: fresh from a code generator *)

type stub = {
  commits : (reg * operand) list;
      (** guest register <- operand, applied in order *)
  n_commits : int;
      (** [List.length commits], precomputed at construction
          ({!make_stub}) so the pipeline's exit path never walks the
          list *)
  target_pc : int;  (** guest pc to resume at *)
  exit_id : int;
      (** DFG node id of the exit this stub belongs to: memory ops with a
          smaller id are architecturally committed when this exit is
          taken, larger ids executed transiently (leakage audit) *)
}

type trace = {
  entry_pc : int;
  bundles : bundle array;
  stubs : stub array;
  n_regs : int;  (** total register file size used (guest + hidden) *)
  guest_insns : int;  (** guest instructions covered by one pass *)
  meta : meta;
  mutable decoded : decoded;
      (** [bundles] decoded for execution, filled once by
          [Pipeline.decode] when the translation is made. A pure
          function of [bundles], which stay the source of truth for the
          verifier, attribution and the printers; nothing mutates either
          once set. *)
}

val make_stub :
  ?exit_id:int -> commits:(reg * operand) list -> target_pc:int -> unit -> stub
(** Build a stub with [n_commits] precomputed. [exit_id] defaults to
    [max_int] (every memory op committed). *)

(** How a pipeline pass over a trace ended. Defined here (not in
    {!Pipeline}, which re-exports it) so {!Machine} can own the scratch
    exit record without a dependency cycle. *)
type exit_kind = Fallthrough | Side_exit | Rollback

(** Fields are mutable: {!Machine} owns one scratch [exit_info] that each
    pipeline pass refills in place, so a trace run allocates nothing to
    report its exit. The record returned by [Pipeline.run] is
    only valid until the next pass over that machine — copy the fields
    out to retain an exit. *)
type exit_info = {
  mutable next_pc : int;  (** guest pc to resume at *)
  mutable kind : exit_kind;
}

val bundle_count : trace -> int
(** Number of VLIW bundles — the code-cache capacity unit. *)

val pp_op : Format.formatter -> op -> unit

val pp_trace : Format.formatter -> trace -> unit
