(** Cycle-attribution ledger: classifies every simulated cycle into a
    closed set of causes, keyed by tier × trace × guest pc.

    The simulated clock advances in exactly three places (interpreter
    step, pipeline bundle issue, pipeline exit commit); each advance is
    mirrored into this ledger, so the books balance exactly:

      [sum over all buckets = processor total cycles]

    asserted by {!check} at end of run. To attribute fractions of a
    bundle cycle to individual issue slots without floating point, the
    ledger counts in fixed-point [units]: {!scale} units = 1 cycle.
    [scale] is divisible by every issue width up to 16, so slot-level
    splits are exact and conservation is an integer equality. *)

type cause =
  | Committed_work  (** useful issue slots, commit cycles, interp compute *)
  | Fence_stall  (** mitigation-inserted fences + the bubbles they force *)
  | Nospec_serialization  (** empty issue slots: lost ILP / serialization *)
  | Mcb_rollback  (** pipeline-refill penalty of an MCB conflict rollback *)
  | Dispatcher_exit  (** side-exit penalty paid returning to the dispatcher *)
  | Interp_fallback  (** cycles spent interpreting untranslated code *)
  | Cache_miss_stall  (** L1D miss penalties, both tiers *)
  | Cut_protect
      (** serialization forced by min-cut repairs (dep re-inserts and
          index masks) in a [Min_cut]-protected trace *)

val all_causes : cause list

val cause_name : cause -> string

val cause_of_name : string -> cause option

type tier = Interp | Block | Trace

val tier_name : tier -> string

val scale : int
(** Fixed-point units per simulated cycle (720720 = lcm 1..16). *)

type row = {
  r_cause : cause;
  r_tier : tier;
  r_trace : int;  (** entry pc of the trace, 0 for interpreter cycles *)
  r_pc : int;  (** guest pc; schedule-level cycles use the trace entry *)
  r_units : int;
}

type t

val create : unit -> t

(** {2 Recording} *)

val set_tier : t -> entry:int -> tier -> unit
(** Register the tier of the translation installed at [entry] (called by
    the code cache on insert). The mapping survives eviction so a trace
    still in flight attributes to the tier it was translated at. *)

val enter : t -> entry:int -> unit
(** The pipeline is about to run the translation at [entry]: subsequent
    {!add_here} calls key to this trace and its registered tier. *)

val add : t -> cause -> tier:tier -> trace:int -> pc:int -> units:int -> unit

val add_cycles : t -> cause -> tier:tier -> trace:int -> pc:int -> cycles:int -> unit

val add_here : t -> cause -> pc:int -> units:int -> unit
(** {!add} under the current {!enter} trace/tier. *)

val add_here_cycles : t -> cause -> pc:int -> cycles:int -> unit

val note_translation : t -> entry:int -> tier -> unit
(** The engine translated (or retranslated) [entry]; counted per entry so
    reports can flag churny regions. *)

val note_conflict : t -> pc:int -> unit
(** An MCB store-probe conflict was flagged by the store at [pc]; counted
    so rollback cycles can be traced back to the stores causing them. *)

(** {2 Reading} *)

val total_units : t -> int

val total_cycles : t -> float

val by_cause : t -> (cause * int) list
(** Units per cause, every cause present, declaration order. *)

val cause_shares : t -> (string * float) list
(** Per-cause share of total (0 when the ledger is empty), every cause
    present, declaration order. *)

val sample_cycles : t -> int * int
(** [(committed, overhead)] in whole cycles (rounded down) — the
    speculative-vs-committed counter lane pair in the Chrome trace. *)

val rows : t -> row list
(** All nonzero buckets, largest first. *)

val conflict_pcs : t -> (int * int) list
(** [(store pc, conflicts flagged)], most conflicts first. *)

val translations : t -> (int * int) list
(** [(entry pc, translations)], most translations first. *)

val check : t -> cycles:int64 -> (unit, string) result
(** Exact conservation: [total_units = scale * cycles]. *)

val to_json : t -> Gb_util.Json.t

val folded : t -> kernel:string -> top:int -> Buffer.t -> unit
(** Append flamegraph.pl/speedscope-compatible folded stacks, one per
    bucket: [kernel;tier;trace_0x..;pc_0x..;cause units] where counts are
    fixed-point units ({!scale} per cycle). [top <= 0] means all rows. *)
