(** Trace construction (the paper's block-construction optimization):
    starting from a hot guest pc, follow the profiled direction of biased
    branches — duplicating blocks when the path revisits them (loop
    unrolling) — to build one linear guest trace for the scheduler.

    The walk stops at: unbiased or unprofiled conditional branches,
    indirect jumps, ecall, the instruction budget, or the per-pc revisit
    limit. *)

type config = {
  max_insns : int;  (** instruction budget per trace *)
  max_visits : int;  (** per-pc revisit limit (bounds loop unrolling) *)
  bias_threshold : float;  (** minimum taken/not-taken bias to follow *)
  min_samples : int;  (** profile samples needed to trust a bias *)
}

val default_config : config
(** 96 instructions, 4 visits, 0.8 bias, 8 samples. *)

exception Build_failure of string
(** No usable trace at this pc (e.g. it starts with an unbiased branch). *)

val build :
  config ->
  mem:Gb_riscv.Mem.t ->
  profile:(int -> (int * int) option) ->
  entry:int ->
  Gb_ir.Gtrace.t
(** [profile pc] returns [(taken, total)] execution counts of the
    conditional branch at [pc], when profiled. *)

(** {2 Walks}

    A build reads two kinds of input: the instruction word at each pc it
    visits, and the profile at each conditional branch among them. The
    words are text, which {!Gb_riscv.Mem} never lets change, so given
    the config and the entry a build is a deterministic function of the
    directions it reads: a record of them decides whether a later build
    from the same entry would take the same steps, without taking
    them. *)

type walk = {
  w_pcs : int array;
      (** every conditional branch the build read a direction at, in
          order: a branch revisited by unrolling appears once per visit,
          and an unbiased branch the build stopped at appears too *)
  w_dirs : int array;
      (** the direction read at each: {!dir_fall}, {!dir_taken} or
          {!dir_unbiased} *)
}

val dir_fall : int

val dir_taken : int

val dir_unbiased : int

val build_walk :
  config ->
  mem:Gb_riscv.Mem.t ->
  profile:(int -> (int * int) option) ->
  entry:int ->
  Gb_ir.Gtrace.t * walk
(** {!build}, plus the walk it took. *)

val walk_holds :
  config -> profile:(int -> (int * int) option) -> walk -> bool
(** Whether a build with the same config from the walk's entry would
    repeat the walk: every recorded branch still reads the same
    direction from [profile]. Then that build returns a trace equal,
    step by step, to the one the walk was recorded with. Re-reads
    exactly the recorded directions and allocates only what [profile]
    does. *)
