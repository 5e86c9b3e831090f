(** Design-space ablations (beyond the paper's evaluation): how the
    headline results react to the main micro-architecture and DBT-engine
    parameters DESIGN.md calls out. Each returns one row per parameter
    value, measured on a representative kernel and/or on the Spectre
    proof-of-concept. *)

type row = {
  param : string;
      (** parameter name, a dot-free slug: [issue-width], [mcb-entries],
          [hot-threshold], [unroll-limit], [l1d-kib], [cse-folding] or
          [adaptive-despec] *)
  value : string;  (** parameter value, a dot-free slug ([16], [on]) *)
  unsafe_cycles : int64;
      (** the row's kernel (gemm; nussinov for [adaptive-despec]) under the
          unsafe configuration *)
  no_spec_slowdown : float;  (** the cost of turning speculation off *)
  v1_leaks : bool;  (** Spectre v1 succeeds on the unsafe configuration *)
  v4_leaks : bool;  (** Spectre v4 succeeds on the unsafe configuration *)
}

val issue_width : unit -> row list
(** 2-, 4- and 8-wide VLIW (memory/multiplier ports scaled with width). *)

val mcb_size : unit -> row list
(** 0, 2, 8 and 16 MCB entries. With no MCB, memory speculation is
    impossible — Spectre v4 disappears by construction while v1 remains. *)

val hot_threshold : unit -> row list
(** When translation kicks in (8..256 block executions). *)

val unroll_limit : unit -> row list
(** Trace-constructor revisit limit (1 = no unrolling). *)

val adaptive_despec : unit -> row list
(** Conflict-driven de-speculation off vs on, measured on nussinov (the
    kernel with genuine cross-iteration aliasing): on, the rollback storm
    disappears — and, as a side effect, the Spectre v4 attack loses most
    of its leak, because its gadget rolls back on every round. *)

val optimizer_cse : unit -> row list
(** Constant folding + value numbering on vs off: a pure optimizer feature
    that shrinks traces without touching speculation. *)

val cache_size : unit -> row list
(** 16 KiB .. 256 KiB L1D: the attack works across sizes (flush+reload
    needs no eviction-set tricks here because cflush is line-precise). *)

val all : unit -> row list
(** Every ablation's rows, one after another. *)
