(** VLIW machine state: the shared register file (guest + hidden), guest
    memory, the memory hierarchy, the global clock and the MCB. *)

type config = {
  n_hidden : int;  (** hidden (speculation) registers beyond the 32 guest ones *)
  mcb_entries : int;
  exit_penalty : int;  (** pipeline refill cycles on any trace exit *)
  chain : bool;
      (** Vestigial and always [true]: every trace exit returns to the
          dispatcher, there is no trace chaining. {!create} raises
          [Invalid_argument] for [false]. The field stays only until the
          host benchmark's configs stop setting it. *)
}

val default_config : config
(** 96 hidden registers, 8 MCB entries, exit penalty 4. *)

type stats = {
  mutable bundles : int;
  mutable trace_runs : int;
  mutable side_exits : int;
  mutable rollbacks : int;
  mutable fallthroughs : int;  (** trace runs left through the final exit *)
  mutable stall_cycles : int;
  mutable guest_insns : int;
      (** guest instructions covered by executed traces (full-pass upper
          estimate: an early side exit still counts the whole trace) *)
}
(** Native-int counters ([int64] fields would box per increment on the
    hot path); {!Gb_system.Processor} widens them to [int64] in its
    result record. *)

type t = {
  cfg : config;
  regs : Gb_riscv.Regfile.t;
      (** guest registers [0..31], then the hidden ones; slot 0 (x0) is
          never written *)
  mem : Gb_riscv.Mem.t;
  hier : Gb_cache.Hierarchy.t;
  clock : int64 ref;
  mcb : Mcb.t;
  stats : stats;
  obs : Gb_obs.Sink.t;
  audit : Gb_cache.Audit.t option;
      (** leakage audit fed by {!Pipeline.run}; [None] disables buffering *)
  mutable rdcycle_hook : (int64 -> int64) option;
      (** when set, every [Rdcycle] op's result is filtered through the
          hook (given the natural clock reading). The differential
          oracle uses it to record the timing values a run observed —
          committed rdcycles execute in guest program order on both
          tiers (pinned barrier nodes), so the recorded stream can be
          replayed into the reference interpreter, which turns timing
          into a run {e input} instead of compared state. [None]
          (default) reads the clock unfiltered. *)
  mutable w_val : Gb_riscv.Regfile.t;
      (** scratch (owned by {!Pipeline}): parallel-write values, written
          in place by the op that computes them into the static slot
          decode gave it *)
  mutable w_taint : bool array;  (** scratch: parallel-write taint bits *)
  operands : Gb_riscv.Regfile.t;
      (** scratch: an op's immediate operands, staged for the shared
          {!Gb_riscv.Interp} helpers *)
  mutable stall : int;  (** scratch: stall cycles of the current bundle *)
  mutable taken_stub : int;  (** scratch: taken stub index, -1 = none *)
  mutable taken_kind : Vinsn.exit_kind;  (** scratch: kind of taken exit *)
  taint : bool array;
      (** per-run register taint (speculative-load propagation), live
          only while [taint_on] *)
  mutable taint_on : bool;
      (** whether [taint] is being maintained (an audit is attached) *)
  mutable acc_bundles : int;
      (** scratch: bundles not yet folded into [stats.bundles] *)
  mutable acc_stalls : int;
      (** scratch: stall cycles not yet folded into [stats.stall_cycles] *)
  mutable acc_cycles : int;
      (** scratch: cycles not yet folded into [clock]; always 0 outside
          {!Pipeline.run} *)
  mutable eager : bool;
      (** flush the accumulators every bundle (an observer — active
          sink, audit — could read the clock mid-run) *)
  exit_scratch : Vinsn.exit_info;
      (** scratch: the one exit record every pipeline pass refills and
          returns (see {!Vinsn.exit_info} on its lifetime) *)
}

val create :
  ?cfg:config ->
  mem:Gb_riscv.Mem.t ->
  hier:Gb_cache.Hierarchy.t ->
  clock:int64 ref ->
  ?regs:Gb_riscv.Regfile.t ->
  ?obs:Gb_obs.Sink.t ->
  ?audit:Gb_cache.Audit.t ->
  unit ->
  t
(** [regs], when provided, must be at least [32 + cfg.n_hidden] long (it is
    shared with the interpreter, which only uses the first 32 slots).
    [obs] (default {!Gb_obs.Sink.noop}) reads the [vliw.trace_runs],
    [side_exits], [rollbacks] and [fallthroughs] counters from [stats]
    and [vliw.mcb_conflicts] from the MCB's, and receives the
    rollback/conflict events of {!Pipeline} and {!Mcb}. Raises
    [Invalid_argument] when [cfg.chain] is [false]. *)

val ensure_write_capacity : t -> int -> unit
(** Grow the parallel-write scratch buffer to at least [n] slots;
    allocation-free once the buffer is large enough. *)

val flush_acc : t -> unit
(** Fold the batched bundle/stall/cycle accumulators into
    [stats]/[clock]. No-op when they are already 0. *)
