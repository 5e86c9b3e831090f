(** VLIW machine state: the shared register file (guest + hidden), guest
    memory, the memory hierarchy, the global clock and the MCB. *)

type config = {
  n_hidden : int;  (** hidden (speculation) registers beyond the 32 guest ones *)
  mcb_entries : int;
  exit_penalty : int;  (** pipeline refill cycles on any trace exit *)
  chain : bool;
      (** follow patched [stub.chain] links inside {!Pipeline.run} instead
          of returning to the dispatcher. Following a link is only legal
          because links are created exclusively by the code cache, which
          enforces mitigation-mode compatibility and unlinks on eviction. *)
  chain_fuel : int;
      (** maximum chained transfers per {!Pipeline.run} call before
          control is handed back to the dispatcher anyway, so the
          processor's cycle watchdog and host-side loop stay live even
          when a hot loop chains to itself *)
}

val default_config : config
(** 96 hidden registers, 8 MCB entries, exit penalty 4, chaining on with
    fuel 4096. *)

type stats = {
  mutable bundles : int;
  mutable trace_runs : int;
  mutable side_exits : int;
  mutable rollbacks : int;
  mutable stall_cycles : int;
  mutable chain_follows : int;
      (** chained transfers taken without returning to the dispatcher *)
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
  mutable on_chain : Vinsn.exit_info -> Vinsn.trace option;
      (** the chained-transfer resolver, consulted by {!Pipeline.run}
          whenever the taken stub carries a chain link. It must do
          whatever the dispatcher would have done for this exit
          (per-region run/side-exit/rollback accounting, hot-counter
          tick for the target — which may promote or drop translations)
          and then return the translation {e now} installed at
          [next_pc], or [None] to hand the exit back to the dispatcher.
          Resolving after accounting means a transfer that promotes its
          own target immediately runs the new trace, exactly like a
          dispatch — chaining stays invisible to the cost model. The
          default resolver returns [None] (a bare machine has no code
          cache, so it never chains); {!Gb_system.Processor} installs
          the real one. The final (returned) exit is never reported
          here. *)
  mutable rdcycle_hook : (int64 -> int64) option;
      (** when set, every [Rdcycle] op's result is filtered through the
          hook (given the natural clock reading). The differential
          oracle uses it to record the timing values a run observed —
          committed rdcycles execute in guest program order on both
          tiers (pinned barrier nodes), so the recorded stream can be
          replayed into the reference interpreter, which turns timing
          into a run {e input} instead of compared state. [None]
          (default) reads the clock unfiltered. *)
  mutable w_dst : int array;
      (** scratch (owned by {!Pipeline}): parallel-write destinations *)
  mutable w_val : Gb_riscv.Regfile.t;
      (** scratch: parallel-write values, written in place by the op
          that computes them *)
  mutable w_taint : bool array;  (** scratch: parallel-write taint bits *)
  mutable n_writes : int;  (** scratch: live prefix of the write buffer *)
  operands : Gb_riscv.Regfile.t;
      (** scratch: an op's source operands, staged for the shared
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
          {!Pipeline.run_one} *)
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
    [obs] (default {!Gb_obs.Sink.noop}) receives the [vliw.*] counters and
    rollback/conflict events of {!Pipeline} and {!Mcb}. *)

val ensure_write_capacity : t -> int -> unit
(** Grow the parallel-write scratch buffer to at least [n] slots;
    allocation-free once the buffer is large enough. *)

val flush_acc : t -> unit
(** Fold the batched bundle/stall/cycle accumulators into
    [stats]/[clock]. No-op when they are already 0. *)
