(** Deterministic pseudo-random number generator (xorshift64-star).

    Every stochastic component of the simulator draws from an explicit
    generator so that simulations and tests are reproducible. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. A zero seed is remapped to a
    fixed non-zero constant (xorshift has a zero fixed point). *)

val next : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] draws uniformly in [\[0, bound)]. [bound] must be > 0. *)

val choose : t -> 'a array -> 'a
(** Uniform draw from a non-empty array. *)
