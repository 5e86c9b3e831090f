(** Flat byte-addressable little-endian guest memory. *)

type t

exception Fault of int
(** Raised on an out-of-range access; carries the faulting address. *)

val create : size:int -> t
(** Zero-initialised memory of [size] bytes. *)

val size : t -> int

val load : t -> addr:int -> size:int -> int64
(** Little-endian load of 1, 2, 4 or 8 bytes, zero-extended. Allocates
    its result: the hot paths use {!load_int} and {!load64}. *)

val load_int : t -> addr:int -> size:int -> int
(** Allocation-free little-endian load of 1, 2 or 4 bytes, zero-extended
    into a native int (the hot sub-word load path of both execution
    tiers). *)

val load64 : t -> addr:int -> int64
(** Little-endian 8-byte load. Inlined where this module's [.cmx] is
    visible, so a result passed straight to {!Regfile.set} is never
    boxed. *)

val store : t -> addr:int -> size:int -> int64 -> unit
(** Little-endian store of the low [size] bytes of the value. *)

val store_int : t -> addr:int -> size:int -> int -> unit
(** Allocation-free store of the low 1, 2 or 4 bytes of a native int. *)

val store64 : t -> addr:int -> int64 -> unit
(** Little-endian 8-byte store; inlined like {!load64}. *)

val load_insn_word : t -> addr:int -> int
(** 32-bit instruction fetch. *)

val blit_bytes : t -> addr:int -> bytes -> unit
(** Copy raw bytes into memory at [addr]. *)

val read_bytes : t -> addr:int -> len:int -> bytes

val copy : t -> t
(** Deep copy (used by differential tests). *)
