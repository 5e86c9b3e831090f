(** Baseline selection and regression comparison over a perf trajectory.

    A trajectory directory ([bench/trajectory/]) holds one committed
    {!Manifest} per PR that changed performance. {!load_dir} reads it,
    {!select} picks the comparison baseline (the latest sequence number,
    or a pinned git rev), and {!compare} diffs a freshly recorded manifest
    against it cell by cell under per-metric direction and tolerance
    rules, producing a typed verdict per cell. The CI perf gate fails on
    any [Regressed] or [Removed] cell. *)

(** How a metric family is judged. *)
type direction =
  | Lower_better of float
      (** regression when [cur > base * (1 + tol)]; the payload is the
          relative tolerance (0 means exact: any increase regresses) *)
  | Band of float
      (** two-sided absolute band: regression when
          [|cur - base| > tol], either direction (cause shares: any
          drift of the attribution profile needs a look) *)
  | Exact  (** any change, either way, is a regression (verdict cells) *)
  | Info  (** tracked and reported, never gated *)

val rule_for : string -> direction
(** The rule a metric name dispatches to (see the naming convention in
    {!Manifest}): [cycles.*], [slowdown.*] and [exits_per_1k.*] are
    [Lower_better default_tol_cycles];
    [audit_fn.*] is [Lower_better 0.]; [cause_share.*] is
    [Band default_band_share]; [alloc.*] is
    [Lower_better default_tol_alloc]; [counter.*], [faults.*] and
    anything unrecognised are [Info]. *)

val default_tol_cycles : float
(** 0.01 — the simulator is deterministic, so 1% headroom only absorbs
    intentional noise (e.g. a changed instrumented-run shape), not real
    regressions. *)

val default_band_share : float
(** 0.02 — two percentage points of absolute drift allowed per cause
    share before the attribution gate trips. *)

val default_tol_alloc : float
(** 0.05 — headroom for the [alloc.minor_words_per_kinsn.*] cells. The
    measurement itself is deterministic; the band absorbs legitimate
    small drift from unrelated changes (a new record field, a changed
    cold path inside the measured window) while any real per-instruction
    allocation leak — one word per insn is a >40% step on the current
    floor — trips the gate. *)

type status = Improved | Unchanged | Regressed | Added | Removed

val status_name : status -> string

type cell = {
  c_name : string;
  c_kind : [ `Metric | `Verdict ];
  c_rule : direction;
  c_base : float option;  (** [None] when absent from the baseline *)
  c_cur : float option;  (** [None] when absent from the current run *)
  c_delta : float;
      (** relative delta [(cur - base) / base]; [infinity] when the
          baseline cell is 0 and the current one is not; 0 when either
          side is missing *)
  c_status : status;
}

type comparison = {
  base_rev : string;
  base_seq : int;
  cur_rev : string;
  cells : cell list;  (** one per union metric/verdict name, sorted *)
  regressed : int;
  improved : int;
  unchanged : int;
  added : int;  (** cells the baseline lacks (new kernels/metrics) *)
  removed : int;  (** cells the current run lacks (lost coverage) *)
  passed : bool;  (** no [Regressed] cell and no [Removed] cell *)
}

val compare : baseline:Manifest.t -> Manifest.t -> comparison
(** Compare a current manifest against the baseline. Lost coverage
    ([Removed] cells) fails the comparison like a regression: every
    manifest has the same shape, so a missing cell means a skipped
    experiment, which must not hide a regression. A mismatch in
    [schema_version] is impossible here ({!Manifest.of_json} already
    rejected it). *)

val regressions : comparison -> cell list

val load_dir : string -> (Manifest.t list, string) result
(** Read every [BENCH_*.json] in a directory, sorted by sequence number
    (per-file [seq] field, falling back to the filename). An unreadable or
    schema-incompatible file is an error — a trajectory must never be
    silently partial. [Error] when the directory has no manifests. *)

val select : ?rev:string -> Manifest.t list -> Manifest.t option
(** The comparison baseline: the manifest whose [rev] matches (prefix
    match, so a full sha selects a short-rev manifest and vice versa), or
    the highest [seq] when [rev] is omitted. *)

val next_seq : Manifest.t list -> int
(** Highest committed sequence number + 1 (1 on an empty trajectory) —
    what a newly recorded manifest should be stamped with when it is
    added to the trajectory. *)
