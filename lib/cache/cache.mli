(** Set-associative data cache with LRU replacement.

    Only presence/absence of lines is modelled (no data storage — the
    simulator's memory is always coherent); this is sufficient and exact
    for timing and for the flush+reload side channel. Write misses
    allocate (write-allocate policy). *)

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
(** [obs] (default {!Gb_obs.Sink.noop}) receives [cache.*] counters, the
    [cache.miss_distance] histogram (accesses between consecutive misses)
    and a {!Gb_obs.Event.Cache_miss} event per allocated line. Raises
    [Invalid_argument] when {!check_config} rejects the geometry. *)

val config : t -> config

val stats : t -> stats

val line_of : t -> int -> int
(** Line-aligned base address of the line containing an address. *)

val access : t -> addr:int -> write:bool -> bool
(** Touch one address: returns [true] on hit. Misses allocate the line,
    evicting the LRU way. Accesses that straddle a line boundary touch the
    second line too (a miss in either counts as a miss). *)

val access_range : t -> addr:int -> size:int -> write:bool -> bool
(** [access] over [size] bytes. *)

val contains : t -> int -> bool
(** Presence probe that does not disturb LRU state (for tests and
    reporting). *)

val set_index : t -> int -> int
(** Cache set holding the line that contains an address. *)

val lines : t -> int list
(** Line-aligned base addresses of every valid line, sorted. Used by the
    leakage audit to diff the real cache against the architectural
    shadow. *)

val flush_line : t -> int -> unit
(** Invalidate the line containing an address (no-op when absent). A
    negative address contains no line: the call does nothing and is not
    counted in [flushes]. *)

val flush_all : t -> unit
