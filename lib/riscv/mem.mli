(** Byte-addressable little-endian guest memory, demand-paged in 4 KiB
    pages. Every page of a fresh memory is one zero page that all
    memories share and no store writes; the first store into a page
    gives it a private zeroed copy. Loads read whatever page is there,
    so a memory allocates only the pages its guest writes. An access
    that straddles two pages behaves exactly as one within a page.

    A memory also holds the text segment, declared by {!Asm.load}: the
    only range instructions are fetched from, and a range no write
    reaches (W^X). Every decoded form of guest code is therefore
    computed once and never re-checked. *)

type t

exception Fault of int
(** Raised on an out-of-range access, a write that overlaps text and an
    instruction fetch outside text; carries the faulting address (a
    write's first byte). *)

val create : size:int -> t
(** Zero-initialised memory of [size] bytes. It allocates only a table
    of [size / 4096] (rounded up) page pointers, all to the shared zero
    page: [size] bounds the address space, not what the memory costs. *)

val size : t -> int

val set_text : t -> lo:int -> hi:int -> unit
(** Declare the text segment [\[lo, hi)] (a fresh memory's is empty),
    once: it never changes after. Raises [Invalid_argument] if a
    segment was declared already, or unless both ends are 4-aligned and
    [0 <= lo <= hi <= size]. *)

val text_lo : t -> int

val text_hi : t -> int

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
(** Little-endian store of the low [size] (1, 2, 4 or 8) bytes of the
    value. Raises [Invalid_argument] for any other size, before it
    checks the address. Every store raises {!Fault} when it overlaps
    text. *)

val store_int : t -> addr:int -> size:int -> int -> unit
(** Allocation-free store of the low 1, 2 or 4 bytes of a native int. *)

val store64 : t -> addr:int -> int64 -> unit
(** Little-endian 8-byte store; inlined like {!load64}. *)

val load_insn_word : t -> addr:int -> int
(** 32-bit instruction fetch: raises {!Fault} unless [addr] is a
    4-aligned word inside text. *)

val blit_bytes : t -> addr:int -> bytes -> unit
(** Copy raw bytes into memory at [addr], a page at a time: the loader's
    write, refused like a store where it overlaps text, so a program is
    copied in before its text is declared. *)

val read_bytes : t -> addr:int -> len:int -> bytes

val copy : t -> t
(** Deep copy (used by differential tests): the copy has its own copy of
    every written page and shares the zero page, so stores on either
    side stay private. It has the same text segment. *)
