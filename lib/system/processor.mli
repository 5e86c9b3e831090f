(** The co-designed DBT processor: a reference interpreter executes (and
    profiles) cold code; hot paths are translated by the DBT engine and run
    on the VLIW core. Interpreter and core share one architectural
    register file, one memory, one data cache and one clock — so the cache
    side channel crosses the boundary exactly as on the real machine. *)

type config = {
  mem_size : int;
  hier : Gb_cache.Hierarchy.config;
  machine : Gb_vliw.Machine.config;
  engine : Gb_dbt.Engine.config;
  max_cycles : int;  (** watchdog *)
}

val default_config : config

val config_for : Gb_core.Mitigation.mode -> config
(** Default configuration with the engine running a given mitigation. *)

type result = {
  exit_code : int;
  cycles : int64;
  interp_insns : int64;  (** guest instructions executed by the interpreter *)
  trace_runs : int64;
  bundles : int64;
  side_exits : int64;
  rollbacks : int64;
  stall_cycles : int64;
  translations : int;
  first_pass_translations : int;
  patterns_found : int;
  loads_constrained : int;
  fences_inserted : int;
  spec_loads : int;
  verify_checked : int;
      (** translations examined by the install-time verifier (0 when
          [engine.verify] is [Verify_off]) *)
  verify_violations : int;  (** violations the verifier recorded *)
  verify_rejections : int;
      (** translations [Verify_enforce] refused to install unfenced *)
  dispatch_exits : int64;
      (** trace exits handled by the dispatch loop: every trace exit, so
          always [trace_runs]. The field stays only until the host
          benchmark stops reading it. *)
  chain_follows : int64;
      (** Vestigial and always 0: there is no trace chaining. The field
          stays only until the host benchmark stops reading it. *)
  guest_insns : int64;
      (** total guest instructions executed (interpreter + translated
          code) *)
  cc_evictions : int;  (** code-cache capacity evictions *)
  output : string;
  audit : Gb_cache.Audit.summary option;
      (** leakage-audit classification; [None] unless created with
          [~audit:true] *)
}

(** The knobs {!validate} checks. *)
type knob =
  | Issue_width  (** [engine.resources]: width and every slot count *)
  | Mcb_entries  (** [machine.mcb_entries] *)
  | L1d_geometry  (** [hier.cache] *)
  | Code_cache_capacity  (** [engine.cache.capacity] *)
  | Hot_threshold  (** [engine.hot_threshold] *)
  | Unroll_limit  (** [engine.trace_cfg.max_visits] *)

val validate : config -> (unit, knob * string) Stdlib.result
(** [Ok] when every knob is in range: an issue width and slot counts of
    at least 1, at least 0 MCB entries, an L1D geometry
    {!Gb_cache.Cache.check_config} accepts, and a code-cache capacity,
    hot threshold and unroll limit of at least 1. Out of range, a run
    could hang (issue width 0), raise mid-run, or run a configuration
    that means nothing (capacity 0, a negative threshold), so
    {!create} rejects it; [Error] names the knob and says why. *)

type t

val create :
  ?config:config ->
  ?obs:Gb_obs.Sink.t ->
  ?audit:bool ->
  ?inject:Inject.t ->
  Gb_riscv.Asm.program ->
  t
(** [obs] (default {!Gb_obs.Sink.noop}) is threaded into the cache
    hierarchy, the VLIW machine and the DBT engine, and wired to the
    shared simulated clock so events carry cycle timestamps.
    [audit] (default [false]) attaches a {!Gb_cache.Audit} leakage audit:
    a shadow cache fed only by architecturally-committed accesses runs in
    lockstep with the real one, every trace exit diffs the two, and the
    result's [audit] field carries the classification summary.
    [inject] arms the fault-injection harness at the documented points
    (mid-trace eviction, MCB conflict-bit faults, transient translation
    failure, decode-cache flush); when omitted, {!Inject.of_env} can arm
    one from [GHOSTBUSTERS_INJECT].
    The machine's [mcb_entries] is the one MCB knob: a speculating
    translator's tag budget is set equal to it (no memory speculation
    at all when it is 0 — "MCB disabled"), so generated code uses
    exactly the entries the hardware has. The engine's [n_hidden] is
    clamped to the machine's, so it never emits code using registers
    the machine does not have. Raises [Invalid_argument] when
    {!validate} rejects [config], and when [machine.chain] or
    [engine.cache.chain] is [false]. *)

val mem : t -> Gb_riscv.Mem.t

val hierarchy : t -> Gb_cache.Hierarchy.t

val engine : t -> Gb_dbt.Engine.t

val obs : t -> Gb_obs.Sink.t
(** The sink passed at creation ({!Gb_obs.Sink.noop} by default). *)

val audit : t -> Gb_cache.Audit.t option
(** The leakage audit, when created with [~audit:true]. *)

val interp : t -> Gb_riscv.Interp.t
(** The reference interpreter holding the shared architectural state
    (used by the differential oracle to read pc/regs/output). *)

val machine : t -> Gb_vliw.Machine.t
(** The VLIW core (the differential oracle installs its rdcycle
    record hook here). *)

val inject : t -> Inject.t option
(** The armed fault controller, if any. *)

val allocs : t -> Gb_obs.Allocs.t
(** The engine's execution-allocation accumulator
    ({!Gb_dbt.Engine.allocs}): start it before {!run} and stop it after
    to measure the run's execution-tier minor-heap allocation, with the
    translation pipeline excluded. *)

val set_on_trace_exit :
  t -> (region:int -> Gb_vliw.Pipeline.exit_info -> unit) -> unit
(** Install an observer fired exactly once per trace exit, after the exit
    stub committed architectural state and the engine recorded the exit.
    [region] is the entry pc of the region that ran (the pc the
    dispatcher looked up). The differential oracle synchronises the
    reference interpreter here. *)

val run : t -> result
(** Run to the exit ecall. Raises {!Gb_riscv.Interp.Trap} on guest errors
    or when [max_cycles] is exceeded. *)

val run_program :
  ?config:config ->
  ?obs:Gb_obs.Sink.t ->
  ?audit:bool ->
  Gb_riscv.Asm.program ->
  result
(** [create] + [run]. *)
