(** Set-associative data cache with LRU replacement.

    Only presence/absence of lines is modelled (no data storage — the
    simulator's memory is always coherent); this is sufficient and exact
    for timing and for the flush+reload side channel. Write misses
    allocate (write-allocate policy).

    The state is two flat [int] arrays, tags and LRU stamps, with way [w]
    of set [s] at slot [s * ways + w]. Line size and set count are powers
    of two, so an address's set and tag are taken by shift and mask, and
    a lookup scans [ways] adjacent ints. That holds for non-negative
    addresses only: a negative address names no line. {!access},
    {!access_range} and {!set_index} raise [Invalid_argument] on one,
    {!contains} returns [false], and {!flush_line} ignores it. *)

type config = {
  size_bytes : int;  (** total capacity *)
  ways : int;  (** associativity *)
  line_bytes : int;  (** line size (power of two) *)
}

val default_config : config
(** 64 KiB, 8-way, 64-byte lines. *)

type t

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable read_misses : int;
  mutable write_misses : int;
  mutable flushes : int;
}

val check_config : config -> (unit, string) result
(** [Ok] for a buildable geometry: a power-of-two line size, at least
    one way, and a power-of-two number of sets
    ([size_bytes / (line_bytes * ways)]). *)

val create : ?obs:Gb_obs.Sink.t -> config -> t
(** [obs] (default {!Gb_obs.Sink.noop}) reads the [cache.*] counters
    from {!stats}, and receives the [cache.miss_distance] histogram
    (accesses between consecutive misses) and a {!Gb_obs.Event.Cache_miss}
    event per allocated line. Raises [Invalid_argument] when
    {!check_config} rejects the geometry. *)

val config : t -> config

val stats : t -> stats

val line_of : t -> int -> int
(** Line-aligned base address of the line containing an address. *)

val access : t -> addr:int -> write:bool -> bool
(** Touch one address: returns [true] on hit. Misses allocate the line,
    evicting the first invalid way, else the least recently used one.
    Raises [Invalid_argument] on a negative address. *)

val access_range : t -> addr:int -> size:int -> write:bool -> bool
(** [access] over [size] bytes. An access that straddles a line boundary
    touches the second line too (a miss in either counts as a miss),
    unless its last byte lies past [max_int] and so names no line.
    Raises [Invalid_argument] on a negative [addr]. *)

val contains : t -> int -> bool
(** Presence probe that does not disturb LRU state (for tests and
    reporting); [false] for a negative address. *)

val set_index : t -> int -> int
(** Cache set holding the line that contains an address. Raises
    [Invalid_argument] on a negative address. *)

val lines : t -> int list
(** Line-aligned base addresses of every valid line, sorted. Used by the
    leakage audit to diff the real cache against the architectural
    shadow. *)

val flush_line : t -> int -> unit
(** Invalidate the line containing an address (no-op when absent). A
    negative address contains no line: the call does nothing and is not
    counted in [flushes]. *)

val flush_all : t -> unit
