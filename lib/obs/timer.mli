(** Phase timers for the host-side DBT work (first pass, trace building,
    poison analysis, scheduling, codegen), on the monotonic clock.
    Aggregated totals per phase plus a bounded ring of individual spans
    for the Chrome trace export. Timestamps are relative to timer
    creation, in microseconds. *)

type span = { sp_phase : string; sp_start_us : float; sp_dur_us : float }

type t

val create : ?span_capacity:int -> unit -> t
(** Default span capacity 8192. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t phase f] runs [f] and records its duration under
    [phase]; records even when [f] raises. Nested calls are allowed. *)

type total = { t_phase : string; t_calls : int; t_total_us : float }

val totals : t -> total list
(** One row per phase, longest total first. *)

val spans : t -> span list
(** Retained spans, oldest first (completion order). *)
