(** Memory Conflict Buffer (Gallagher et al., ASPLOS'94), the hardware
    support for memory-dependency speculation: speculative loads record
    their address; stores compare against all recorded addresses and mark
    conflicts; the [chk] instruction consumes an entry and reports whether
    a conflict occurred (in which case the DBT runtime rolls back). *)

type t

type stats = {
  mutable conflicts : int;
      (** conflicts marked since creation ([vliw.mcb_conflicts], which
          {!Machine.create} registers) *)
}

val create : ?obs:Gb_obs.Sink.t -> entries:int -> unit -> t
(** [obs] (default {!Gb_obs.Sink.noop}) receives a
    {!Gb_obs.Event.Mcb_conflict} event per marked entry.
    [entries = 0] means "MCB disabled": {!alloc}/{!store_probe} are
    no-ops and {!check} reports no conflict. A disabled MCB requires the
    translator to emit no speculative memory ops ({!Gb_ir.Opt_config}
    with [mem_spec = false]; the processor clamps this automatically).
    Raises [Invalid_argument] when [entries] is negative. *)

val entries : t -> int

val enabled : t -> bool
(** [entries t > 0]. *)

val set_fault_hook : t -> (tag:int -> conflict:bool -> bool) option -> unit
(** Fault-injection hook for the differential harness: when set, every
    {!check} result is filtered through the hook (return [true] to force
    a spurious conflict, [false] to suppress a real one). [None] (the
    default) leaves results untouched. *)

val clear : t -> unit
(** Invalidate all entries (done on trace entry). *)

val alloc : t -> tag:int -> addr:int -> size:int -> unit
(** Record a speculative load. Re-allocating a live tag resets its
    conflict bit. Out-of-range tags (always the case when disabled) are
    ignored. *)

val store_probe : t -> pc:int -> addr:int -> size:int -> unit
(** Called by every store: marks every live entry overlapping the range.
    [pc] is the store's guest pc (attribution; pass 0 when unknown). It
    is a required label so the per-store hot path never boxes an
    optional argument. *)

val check : t -> tag:int -> bool
(** Consume entry [tag]; returns [true] iff a conflict was recorded.
    Unallocated tags report no conflict. *)

val stats : t -> stats
