(** BLADE-style minimum leak-cut placement over the trace DFG.

    Models transient leakage as an s-t flow problem: sources are
    speculative (unconstrained) loads, transmitters are the address
    operands of speculative memory accesses, and edge capacities are
    estimated stall costs from {!Gb_ir.Latency}. A minimum cut is the
    cheapest sound set of repairs severing every source→transmitter
    path; each cut edge is realized as targeted dependency re-insertion
    (the fine-grained machinery), an index mask on the address path, or
    a fence as a last resort. The emitted schedule is independently
    re-checked against the plan by {!Gb_verify.Verifier.check_cut}. *)

type repair_kind =
  | Dep_reinsert  (** re-insert the load's control/memory dependency *)
  | Mask  (** interpose a guard-pinned index mask on the address path *)
  | Fence  (** full barrier; last resort when a mask cannot anchor *)

type repair = {
  r_node : int;  (** DFG id of the load this repair protects *)
  r_pc : int;  (** its guest pc *)
  r_kind : repair_kind;
  r_cost : int;  (** capacity of the cut edge (estimated stall cycles) *)
  r_realized : bool;  (** false until {!apply} materializes it *)
}

type plan = {
  sources : int;  (** speculative loads feeding the network *)
  transmitters : int;  (** cuttable speculative address edges *)
  max_flow : int;  (** min-cut weight = total estimated repair cost *)
  repairs : repair list;  (** the cut, ascending node id *)
  dep_reinserts : int;
  masks : int;
  fences : int;
  mask_nodes : int list;  (** DFG ids of materialized mask ALU nodes *)
}

val empty_plan : plan

val analyze : lat:Gb_ir.Latency.t -> Gb_ir.Dfg.t -> plan
(** Build the network, run max-flow/min-cut and return the repair plan
    without mutating the graph (all [r_realized] = false). *)

val mask_load : Gb_ir.Dfg.t -> lat:Gb_ir.Latency.t -> int -> int
(** Materialize the index-mask repair for the speculative load at the
    given node id: appends an identity AND node pinned below the load's
    guards, makes the load depend on it, drops the MCB tag and marks the
    load constrained. Returns the mask node's id. *)

val apply :
  ?unsound:bool ->
  lat:Gb_ir.Latency.t ->
  constrain:(int -> unit) ->
  fence:(int -> unit) ->
  Gb_ir.Dfg.t ->
  plan
(** {!analyze}, then realize every repair: [constrain] for
    [Dep_reinsert] (the caller passes the fine-grained machinery),
    {!mask_load} for [Mask], [fence] for [Fence]. [unsound] (default
    false) deliberately leaves the first repair unrealized while keeping
    it in the plan — the sensitivity control the cut-soundness verifier
    pass must reject, mirroring the diff oracle's mcb-suppress
    control. *)
