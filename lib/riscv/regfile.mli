(** A vector of 64-bit register slots backed by [Bytes].

    One [Regfile.t] is the architectural state shared by both execution
    tiers: {!Gb_system.Processor} creates it once, with the 32 guest
    registers first and the VLIW core's hidden registers after them, and
    hands it to the interpreter and to the VLIW machine. The VLIW
    pipeline's parallel-write buffer and operand staging slots are
    [Regfile.t]s too.

    Unlike an [int64 array], whose elements are boxed, a slot holds the
    raw 64 bits. {!get} and {!set} are the bounds-checked
    [%caml_bytes_get64]/[%caml_bytes_set64] primitives, inlined at the
    call site when the caller is compiled with this module's [.cmx]
    (the release profile). A value computed by a primitive and passed
    directly to {!set}, or read by {!get} and passed directly to a
    primitive, is then never boxed. See docs/INTERNALS.md §12 for the
    rules the hot loops follow.

    A slot index [r] must be a register number (a small non-negative
    int); an index past the end raises [Invalid_argument], like an array
    access. There is no x0 special case here: the tiers keep slot 0 of
    the architectural file at zero by never writing it. *)

type t

val create : int -> t
(** [create n]: [n] slots, all zero. *)

val length : t -> int
(** Number of slots. *)

val get : t -> int -> int64

val set : t -> int -> int64 -> unit

val move : t -> int -> t -> int -> unit
(** [move dst d src s] copies slot [s] of [src] into slot [d] of [dst]
    without materialising the value. *)

val copy : t -> t
