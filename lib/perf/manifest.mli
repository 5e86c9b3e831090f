(** Schema-versioned run manifests: one JSON document per bench run.

    A manifest is the durable record a run leaves in the perf trajectory
    ([bench/trajectory/BENCH_<seq>.json]): where it ran (git rev, host and
    OCaml environment), how it was configured (mitigation modes, code-cache
    capacity, seed), what it measured (a flat, sorted [name -> float]
    metric map: per-experiment per-kernel simulated cycles and slowdowns,
    translation rates, attributed cycles, [Gb_obs] counter snapshots and
    every number EXPERIMENTS.md's tables show) and
    what it concluded (a [name -> bool] verdict map: leakage-audit,
    static-verification and differential-oracle gates).

    The metric names follow a dotted convention the {!Baseline} comparison
    rules dispatch on:

    - [cycles.<exp>.<kernel>.<mode>] — simulated cycles (lower is better,
      relative tolerance);
    - [slowdown.<exp>.<kernel>.<mode>] — cycles(mode)/cycles(unsafe)
      (lower is better, relative tolerance);
    - [translations_per_1k.e8.<kernel>] — trace translations per 1k
      guest instructions with the default code cache (lower is better,
      relative tolerance; the cell that catches a code cache that
      thrashes, which barely moves cycles);
    - [audit_fn.<exp>.<kernel>.<mode>] — leakage-audit false negatives
      (lower is better, zero tolerance);
    - [cause_cycles.e2.<mode>.<cause>] — the {!Gb_obs.Attrib}
      cycle-attribution profile of the E2 sweep: a cause's cycles summed
      over its programs (two-sided relative band: a move either way
      beyond the band is a regression);
    - [alloc.minor_words_per_kinsn.<tier>] — minor-heap words per 1000
      guest instructions (lower is better, relative tolerance);
    - [counter.<name>] — raw [Gb_obs] counters of the canonical
      instrumented run (informational: reported, never gated);
    - [faults.<...>] — fault-injection accounting (informational);
    - [table.<exp>.<...>] — what EXPERIMENTS.md's tables show and no
      rule gates (informational).

    Every name component is a dot-free slug.

    Verdict cells compare exact: any flip against the baseline is a
    regression (refresh the baseline when a flip is intentional). *)

type t = {
  schema_version : int;
  seq : int;  (** position in the trajectory; 0 = not (yet) committed *)
  rev : string;  (** git revision the run was built from, or ["unknown"] *)
  seed : int64;  (** the bench seed the run used *)
  env : (string * string) list;  (** host/OCaml environment, sorted *)
  config : (string * Gb_util.Json.t) list;  (** configuration knobs, sorted *)
  metrics : (string * float) list;  (** sorted by name, unique *)
  verdicts : (string * bool) list;  (** sorted by name, unique *)
}

val current_version : int
(** The schema version this code writes and the only one it reads. *)

val make :
  ?seq:int ->
  ?rev:string ->
  ?seed:int64 ->
  ?env:(string * string) list ->
  ?config:(string * Gb_util.Json.t) list ->
  ?verdicts:(string * bool) list ->
  (string * float) list ->
  t
(** Build a manifest from metric cells. [rev] defaults to {!detect_rev};
    [env] to {!default_env}; [seq] to 0; [seed] to 1. Metric and verdict
    lists are sorted and deduplicated (last binding wins). *)

val default_env : unit -> (string * string) list
(** OCaml version, word size and OS type of the running binary. *)

val detect_rev : unit -> string
(** {!rev_of} the current directory: the short HEAD hash from
    [git rev-parse --short HEAD], and dirty unless [git diff --quiet HEAD]
    reports that no tracked file differs from it. ["unknown"] outside a
    checkout or when git is unavailable. *)

val rev_of : head:string option -> dirty:bool -> string
(** The rev a manifest records: ["unknown"] when [head] is [None], else
    the hash, with ["-dirty"] appended when [dirty] (the run was built
    from a tree that differs from that commit). *)

val is_dirty : string -> bool
(** Whether a rev carries the ["-dirty"] suffix of {!rev_of}. *)

val metric : t -> string -> float option

val verdict : t -> string -> bool option

val failed_verdicts : t -> string list
(** The verdicts that do not read what a healthy manifest reads, in name
    order: [e1.<variant>.<mode>.leaked] must be true exactly when [mode]
    is [unsafe] (both PoCs leak on the unprotected core and nowhere
    else), and every other verdict must be true. CI's "Gate verdicts"
    step applies the same rule. *)

val to_json : t -> Gb_util.Json.t

val of_json : Gb_util.Json.t -> (t, string) result
(** Validates the schema: a missing or non-matching [schema_version] (both
    older and unknown newer versions), or a malformed section, is an
    [Error] naming the offending field. *)

val to_string : t -> string
(** Pretty-printed JSON. *)

val of_string : string -> (t, string) result

val write : string -> t -> unit
(** Write to a file (pretty JSON, trailing newline). *)

val read : string -> (t, string) result
(** Read and validate a manifest file; I/O errors are [Error]s too. *)

val filename : seq:int -> string
(** [BENCH_<seq, zero-padded to 4>.json] — the trajectory naming scheme. *)

val seq_of_filename : string -> int option
(** Inverse of {!filename} on a basename; [None] when the name does not
    match [BENCH_*.json]. *)
