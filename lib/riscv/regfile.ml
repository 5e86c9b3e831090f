type t = Bytes.t

(* Bounds-checked 64-bit accesses. Passed straight to or from another
   primitive, the [int64] stays in a machine register: no box, and no
   write barrier, since a [Bytes] store is not a pointer store. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let create n = Bytes.make (8 * n) '\000'

let length t = Bytes.length t / 8

let[@inline] get t r = get64 t (r lsl 3)

let[@inline] set t r v = set64 t (r lsl 3) v

let[@inline] move dst d src s = set64 dst (d lsl 3) (get64 src (s lsl 3))

let copy = Bytes.copy
