(** Metrics registry: named gauges and log-scale histograms,
    snapshotable to {!Gb_util.Json}. Counters are not kept here: each is
    a field of its component's stats record, which {!Sink.counters}
    reads.

    Naming convention (see docs/OBSERVABILITY.md): dot-separated
    [subsystem.metric] in snake_case, e.g. [code_cache.bundles],
    [cache.miss_distance]. Instruments are created lazily on first use;
    reading an instrument that was never touched yields [None]. *)

type t

val create : ?seed:int64 -> unit -> t
(** [seed] feeds the deterministic reservoir sampler used for histogram
    percentiles (default 1). *)

(** {2 Gauges} *)

val set_gauge : t -> string -> float -> unit

val gauge_value : t -> string -> float option

(** {2 Histograms} *)

val observe : t -> string -> float -> unit
(** Record one sample into a base-2 log-scale histogram. Also feeds a
    bounded deterministic reservoir from which percentile summaries are
    computed with {!Gb_util.Stats.percentile}. *)

type histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_mean : float;
  h_p50 : float;
  h_p90 : float;
  h_p95 : float;
  h_p99 : float;
  h_buckets : (float * int) list;
      (** (upper bound, samples <= bound in this bucket), non-empty buckets
          only, increasing bounds; the bound of bucket [i>0] is [2^i] *)
}

val histogram_snapshot : t -> string -> histogram_snapshot option

(** {2 Snapshots} *)

val to_json : t -> Gb_util.Json.t
(** [{"gauges": {...}, "histograms": {...}}] with keys sorted
    alphabetically (deterministic output). *)
