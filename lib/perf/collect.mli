(** Manifest collection: flatten experiment results into {!Manifest}
    metric/verdict cells, either from data another harness already
    computed ({!of_data} — the bench reuses its E1–E10 results) or by
    running the experiments here ({!collect} — the
    [ghostbusters perf record] path). Both produce identical cells for
    the same seed, because the simulator is deterministic: a manifest
    recorded on an unchanged tree compares clean against the committed
    trajectory. *)

val config_snapshot : unit -> (string * Gb_util.Json.t) list
(** The default configuration knobs a run is implicitly parameterised by
    (code-cache capacity, chaining, hot threshold, issue width, modes). *)

val counters_snapshot : ?seed:int64 -> unit -> (string * int) list
(** [Gb_obs] counters of the canonical instrumented run: the first
    Polybench kernel under fine-grained mitigation with an active sink —
    the same run the bench prints as its metrics snapshot. *)

val of_data :
  ?seq:int ->
  ?rev:string ->
  ?seed:int64 ->
  ?counters:(string * int) list ->
  ?verdicts_unchanged:bool ->
  ?e9:Gb_experiments.Experiments.e9 ->
  ?e10:Gb_diff.Matrix.t ->
  poc:Gb_experiments.Experiments.poc_row list ->
  figure4:Gb_experiments.Experiments.mode_cycles list ->
  e4:Gb_experiments.Experiments.mode_cycles ->
  chaining:Gb_experiments.Experiments.chain_row list ->
  unit ->
  Manifest.t
(** Build a manifest from precomputed experiment results:

    - [poc] (E1) — [cycles.e1.*] per variant and mode, [audit_fn.e1.*]
      for audited rows, [e1.<variant>.<mode>.leaked] verdicts;
    - [figure4] (E2) — [cycles.e2.*] and [slowdown.e2.*] per kernel and
      mode, geomean slowdowns, [audit_fn.e2.*], and for attributed rows
      the [cause_share.e2.*] cycle-attribution profile;
    - [e4] — same cells under the [e4] prefix;
    - [chaining] (E8) — [exits_per_1k.e8.<kernel>.{chain,nochain}] and
      the cycle/architecture-identity verdicts;
    - [verdicts_unchanged] — E8's churn re-check of the E1 verdicts;
    - [e9]/[e10] — the static-verification and differential-gate
      verdicts, plus fault accounting as informational cells;
    - [counters] — [counter.*] informational cells;
    - [alloc.minor_words_per_kinsn.{interp,pipeline.*}] — minor-heap
      words per 1000 guest instructions of the execution tiers on the
      first Polybench kernel, translation excluded (measured here, not
      passed in: the runs are deterministic and take milliseconds). *)

val poc_verdicts_equal :
  Gb_experiments.Experiments.poc_row list ->
  Gb_experiments.Experiments.poc_row list ->
  bool
(** The E8 churn check: same leak verdicts and audit false-negative
    counts, row for row. *)

val collect : ?seed:int64 -> ?full:bool -> unit -> Manifest.t
(** Run the experiments and build the manifest. [full] (default [true])
    additionally runs E9, E10 and the capacity-constrained E1 re-check —
    everything the bench's own manifest contains (~10 s); [false] stops
    at the cycle/chaining cells (~half). *)
