(** Small numeric summaries: the slowdown geomeans of the experiments,
    the metric percentiles and bench/host's job-time statistics. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val geomean : float list -> float
(** Geometric mean; 1. on the empty list. All inputs must be > 0. *)

val median : float list -> float
(** Median (average of the two central elements for even lengths);
    0. on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs], nearest-rank convention: the smallest element of
    [xs] such that at least [p * length] elements are <= it (so
    [percentile 0.] is the minimum and [percentile 1.] the maximum, with
    no interpolation between order statistics). [p] is clamped to
    [\[0,1\]] (NaN counts as 0.); 0. on the empty list. *)

val min_max : float list -> float * float
(** (min, max); (0., 0.) on the empty list. *)
