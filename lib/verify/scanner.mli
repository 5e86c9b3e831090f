(** Guest-binary Spectre gadget scanner (Teapot-style).

    A purely static abstract dataflow over the decoded rv64im binary — no
    execution, no trace construction. Code is discovered by following
    control flow from the entry point (so data sections are never decoded
    as code), then every conditional branch and every store opens a
    bounded {e speculative window} that is walked along all paths with a
    register taint map:

    - {b v1} (bounds-check bypass): from a branch, both successors are
      speculatively reachable; any load in the window taints its
      destination, taint propagates through ALU ops, and a later memory
      access whose {e address} register is tainted is a v1 gadget
      candidate (branch -> bounded load -> dependent access).
    - {b v4} (store bypass): from a store, a load in the window that may
      alias it (not provably distinct: same unmodified base register and
      disjoint constant ranges) may speculatively read the stale value;
      that load taints, and a dependent access in the window is a v4
      gadget candidate (store -> aliasing load -> dependent access).

    Taint through memory (store a tainted value, load it back) is not
    tracked; the DBT's own speculation never spans more code than a
    trace, which the window approximates. *)

type gadget_kind = V1 | V4

type gadget = {
  g_kind : gadget_kind;
  g_root_pc : int;  (** the branch (v1) or bypassed store (v4) *)
  g_load_pc : int;  (** the speculative load whose value flows onward *)
  g_dep_pc : int;  (** the dependent access — the leaking memory op *)
  g_chain : int list;  (** root, tainting load(s), dependent access *)
}

type report = {
  gadgets : gadget list;  (** deduplicated, sorted by (dep, kind, root) *)
  insns : int;  (** reachable instructions decoded *)
  branches : int;
  stores : int;
  window : int;  (** speculative-window bound used (instructions) *)
}

val scan : ?window:int -> Gb_riscv.Asm.program -> report
(** [window] defaults to 64 instructions — comfortably wider than any
    trace the DBT builds from these programs. *)

val dep_pcs : report -> int list
(** Distinct dependent-access pcs, sorted — the scanner's positives,
    comparable against [Mitigation.report.flagged_pcs]. *)

(** Scanner positives scored against a ground-truth pc set (the pcs the
    poisoning analysis flagged on real traces). *)
type score = {
  hits : int list;  (** scanner ∩ ground truth *)
  missed : int list;  (** ground truth the scanner did not report *)
  extra : int list;  (** scanner positives outside the ground truth *)
  precision : float;  (** |hits| / positives; 1.0 when no positives *)
  recall : float;  (** |hits| / |ground truth|; 1.0 when it is empty *)
}

val score : report -> flagged:int list -> score

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Gb_util.Json.t
