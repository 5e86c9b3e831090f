(** The DBT engine: profiling, hot-spot detection and translation.
    Installed code lives in the bounded {!Code_cache}, which owns
    capacity and eviction; the engine decides {e when} to translate and
    feeds the cache.

    The co-designed processor calls {!record_branch} / {!record_block_entry}
    while interpreting; when a block-entry counter crosses the hot
    threshold the engine builds a trace, lowers it to the IR, applies the
    configured GhostBusters mitigation, schedules and emits VLIW code.
    Failed translations blacklist the pc and execution stays on the
    interpreter. *)

(** Post-scheduling verification of every translation the engine installs
    (see {!Gb_verify.Verifier}): [Verify_off] skips it, [Verify_report]
    checks and records violations but installs anyway, [Verify_enforce]
    rejects a violating translation from the code cache and retranslates
    the region with speculation fenced entirely (defense-in-depth against
    scheduler bugs, independent of the pre-scheduling poisoning
    analysis). *)
type verify_level = Verify_off | Verify_report | Verify_enforce

type config = {
  adaptive_retranslate : bool;
      (** rebuild a trace from the current branch profile once its
          side-exit rate shows the original bias was wrong (e.g. a
          program phase change flipped a branch). On by default: this is
          routine DBT hygiene and orthogonal to speculation safety. *)
  adaptive_despec : bool;
      (** re-translate a trace without memory speculation once its MCB
          rollback rate is high (the adaptive reaction of aggressive
          memory-speculation DBT systems). Off by default: the paper's
          configuration speculates unconditionally. Side effect worth
          noting: it also throttles the Spectre v4 attack, whose gadget
          rolls back on every round. *)
  first_pass_threshold : int;
      (** block executions before first-level (naive, non-speculative)
          translation kicks in *)
  hot_threshold : int;
  mode : Gb_core.Mitigation.mode;
  opt_override : Gb_ir.Opt_config.t option;
      (** when set, replaces the speculation switches derived from [mode]
          (used by the design-space ablations, e.g. varying the MCB size) *)
  resources : Sched.resources;
  lat : Gb_ir.Latency.t;
  trace_cfg : Trace_builder.config;
  n_hidden : int;  (** hidden registers available to the code generator *)
  cache : Code_cache.config;
      (** capacity budget of the code cache the engine installs
          translations into *)
  verify : verify_level;  (** install-time translation verification *)
  workers : int;
      (** Vestigial and always 0: translation is synchronous, on the
          domain that runs the guest. {!create} raises [Invalid_argument]
          for any other value. The field stays only until the host
          benchmark's configs stop setting it. *)
}

val default_config : config
(** First-pass threshold 4, hot threshold 24, [Unsafe] mode, default
    resources/latencies, 96 hidden registers,
    {!Code_cache.default_config}, [workers] 0. *)

type stats = {
  mutable retranslations : int;
      (** traces rebuilt because their branch bias went stale *)
  mutable despeculations : int;
      (** traces re-translated without memory speculation *)
  mutable first_pass_translations : int;
  mutable translations : int;
  mutable failures : int;
  mutable guest_insns_translated : int;
  mutable patterns_found : int;
  mutable loads_constrained : int;
  mutable fences_inserted : int;
  mutable spec_loads : int;
  mutable branch_spec_loads : int;
  mutable verify_checked : int;
      (** verdicts of the install-time gate booked: one per gate run
          (both tiers, a rejected translation and its fenced rebuild
          included) and one per reinstall, which books the verdict
          stored with its code instead of running the gate *)
  mutable verify_violations : int;
  mutable verify_rejections : int;
      (** translations [Verify_enforce] kept out of the code cache *)
  mutable lowerings_reused : int;
      (** trace translations that found the walk stored with the last
          lowering at their entry, under the same de-speculation flag,
          still holding, and reinstalled that lowering instead of forming
          the trace, building IR, mitigating, scheduling, emitting and
          verifying again. The verdict the gate returned when the
          lowering was made is booked again, and every other field
          counts them as usual. Observed runs reuse alike. *)
  mutable blocks_reused : int;
      (** first-pass translations that reinstalled the last block made
          at their entry (text never changes, so neither does the
          block), booking its stored verdict, instead of translating and
          verifying it again. [first_pass_translations] counts them
          too. *)
}

type t

val create :
  ?obs:Gb_obs.Sink.t -> ?audit:Gb_cache.Audit.t -> config -> mem:Gb_riscv.Mem.t -> t
(** [obs] (default {!Gb_obs.Sink.noop}) receives the [translate.*],
    [verify.*] and [mitigation.*] counters (the last from the report of
    each installed translation), per-phase host timers (first_pass,
    walk_check for trace reinstalls, trace_build, ir_build,
    poison_analysis, schedule, codegen, verify) and the translation
    lifecycle events
    ({!Gb_obs.Event.Translate_start} .. {!Gb_obs.Event.Tier_transition}),
    each attributed to the translated entry.
    [audit], when present, is told which loads each lowering hoisted
    speculatively and which the poisoning analysis flagged/constrained;
    under [Unsafe] the analysis additionally runs report-only so the
    audit can score detector precision against unconstrained execution.
    Neither changes the work done (see [stats.lowerings_reused]).
    Raises [Invalid_argument] when [config.workers] is not 0. *)

val config : t -> config

val stats : t -> stats

val code_cache : t -> Code_cache.t
(** The bounded cache holding all installed code (both tiers). *)

val lookup : t -> int -> Gb_vliw.Vinsn.trace option
(** The installed translation at a pc, either tier (a pc has at most one:
    trace promotion replaces the first-level block). Counts a code-cache
    hit/miss and refreshes recency. *)

val record_block_exit : t -> entry:int -> Gb_vliw.Pipeline.exit_info -> unit
(** Called by the processor's dispatcher after every pass over a
    translated region: counts the region's executions, rollbacks and
    side exits for adaptive retranslate/despec, and keeps the branch
    profile alive while warm code executes on the first-level tier
    (whose blocks end at their first conditional branch). *)

type region = {
  r_entry : int;
  r_tier : [ `Block | `Trace ];
  r_trace : Gb_vliw.Vinsn.trace;
  r_runs : int;  (** executions observed via {!record_block_exit} *)
}

val regions : t -> region list
(** Every currently-translated region, hottest first. *)

val record_branch : t -> pc:int -> taken:bool -> unit

val branch_profile : t -> int -> (int * int) option
(** The recorded (taken, total) counts of the conditional branch at a pc
    (used by tools that want to rebuild the same trace the engine saw). *)

val record_block_entry : t -> int -> unit
(** Bump the execution counter of a control-transfer target; translates it
    once hot. A target outside text, or misaligned, is ignored: the next
    fetch there traps. *)

val translate : t -> int -> Gb_vliw.Vinsn.trace option
(** Force a translation attempt (used by tests and tools); [None] when the
    pc cannot be translated. The result is cached either way. *)

val set_on_reinstall :
  t ->
  (entry:int ->
  Code_cache.tier ->
  Gb_vliw.Vinsn.trace ->
  plan:Gb_core.Leakcut.plan option ->
  Gb_verify.Verifier.report option ->
  unit) ->
  unit
(** Observer fired for every reinstall of a stored lowering or block,
    before it is installed: the entry, the tier, the code, the cut plan
    of the lowering's mitigation report ([None] for a block) and the
    verdict booked for it ([None] under [Verify_off]). Nothing in the
    simulator sets it; test_dbt re-runs the gate against what it
    reports. *)

val set_translate_fault : t -> (int -> bool) option -> unit
(** Fault-injection hook for the differential harness: when set, every
    translation attempt (both tiers) first consults the hook with the
    entry pc; [true] makes that attempt fail {e transiently} — [None] is
    returned but the entry is NOT blacklisted, so execution falls back to
    the interpreter and a later arrival retries. Counted as
    [translate.injected_faults]. [None] (the default) disables
    injection. *)

val verify_log : t -> (int * Gb_verify.Verifier.violation) list
(** Every violation the install-time verifier recorded, in chronological
    order, tagged with the region entry pc it was found in. Empty unless
    [config.verify] is [Verify_report] or [Verify_enforce]. *)

val allocs : t -> Gb_obs.Allocs.t
(** The engine's execution-allocation accumulator. The two translation
    entry points ({!translate} and the first-pass tier) pause it, so
    {!Gb_obs.Allocs.start}ing it around a run measures the allocation of
    the execution tiers alone — what the [alloc.minor_words_per_kinsn.*]
    manifest cells report. *)
