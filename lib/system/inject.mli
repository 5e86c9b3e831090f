(** Deterministic fault injection for the differential harness.

    A controller draws from a seeded {!Gb_util.Rng} at well-defined
    injection points threaded through the processor's hot layers; each
    kind models one failure the DBT runtime must recover from gracefully
    (the {!Gb_diff} oracle asserts recovery by comparing architectural
    state against the reference interpreter):

    - [Evict]: the code-cache entry the dispatcher just looked up is
      invalidated while its trace is in flight (mid-trace capacity
      eviction);
    - [Mcb_spurious]: an MCB [chk] reports a conflict that did not happen —
      the rollback path runs and must still converge;
    - [Mcb_suppress]: a real MCB conflict is hidden. This one is
      {e unsound by design} (a stale speculative value commits) and exists
      as the oracle's sensitivity control: the oracle must {e detect} the
      divergence, so this kind is excluded from recovery gates
      ({!recoverable});
    - [Translate_fail]: a translation attempt fails transiently (no
      blacklist) — execution stays on the interpreter and retries later;
    - [Decode_flush]: the interpreter's decode cache is flushed, forcing
      re-decode of everything it fetches next.

    The controller only decides {e whether} to fire and keeps the
    injected/recovered accounting ([fault.*] metrics); the actual
    corruption is performed by the processor wiring
    ({!Processor.create}). *)

type kind =
  | Evict
  | Mcb_spurious
  | Mcb_suppress
  | Translate_fail
  | Decode_flush

val all_kinds : kind list

val kind_name : kind -> string
(** ["evict"], ["mcb"], ["mcb-suppress"], ["translate"], ["decode"] —
    the names accepted by {!parse} and the CLI. *)

val kind_of_name : string -> kind option

val recoverable : kind -> bool
(** [false] only for [Mcb_suppress]. *)

val default_rate : kind -> float
(** Per-fire probability used when a spec names a kind without a rate. *)

type spec = (kind * float) list

val parse : string -> (spec, string) result
(** Parse ["KIND[:RATE][,KIND[:RATE]...]"], e.g. ["evict:0.05,mcb"].
    Rates must lie in [\[0,1\]]; a missing rate uses {!default_rate}. *)

val spec_name : spec -> string
(** Render a spec back to the [parse] syntax (for reports). *)

type t

val create : ?obs:Gb_obs.Sink.t -> ?seed:int64 -> spec -> t
(** [seed] defaults to 1. [obs] (default {!Gb_obs.Sink.noop}) reads the
    [fault.injected] counter ({!injected}), and [fault.injected.KIND]
    for each kind that fired. *)

val spec : t -> spec

val rate : t -> kind -> float
(** 0 when the kind is not in the spec. *)

val sound : t -> bool
(** No unsound kind is armed — a run under a sound controller must show
    zero divergences. *)

val fire : t -> kind -> bool
(** Draw once; [true] means the caller must inject the fault now (the
    draw was already counted as injected). Kinds with rate 0 never fire
    and do not consume randomness. *)

val injected : t -> int
(** The sum of {!injected_by_kind} over every kind. *)

val recovered : t -> int
(** The sum of {!recovered_by_kind} over every kind. *)

val injected_by_kind : t -> kind -> int

val recovered_by_kind : t -> kind -> int
(** The per-kind split of the accounting, published as
    [fault.injected.KIND] / [fault.recovered.KIND] counters — the
    [injected = recovered] soundness check is assertable per kind. *)

val recovered_counters : t -> unit -> (string * int) list
(** The counter source of the recovery accounting: [fault.recovered]
    ({!recovered}), and [fault.recovered.KIND] for each kind recovered.
    Only the differential oracle proves recovery, so it is the one that
    registers this ({!Gb_obs.Sink.add_counters}). The source holds the
    counts, not the controller. *)

val by_kind : t -> (kind * int * int) list
(** [(kind, injected, recovered)] for every kind touched so far, in
    {!all_kinds} order. *)

val pending : t -> int
(** [injected - recovered]. *)

val mark_all_recovered : t -> unit
(** Called by the oracle at every sync point where reference and DBT
    state agree: everything injected so far has provably been recovered
    from. *)

val env_var : string
(** ["GHOSTBUSTERS_INJECT"] — when set, every {!Processor.create} without
    an explicit controller arms one from its value, so the whole existing
    test suite can run under injection unchanged. *)

val seed_env_var : string
(** ["GHOSTBUSTERS_INJECT_SEED"] (default 1). *)

val of_env : ?obs:Gb_obs.Sink.t -> unit -> t option
(** Read {!env_var}; [None] when unset or empty. Raises
    [Invalid_argument] on a malformed spec — injection asked for must
    never be silently dropped. *)
