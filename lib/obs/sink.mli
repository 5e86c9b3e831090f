(** The observability handle threaded through the simulator.

    A sink is either {!noop} — the default everywhere, a single word whose
    record operations return immediately, so untouched callers and
    benchmarks pay nothing — or active, in which case it owns a registry
    of gauges and histograms ({!Metrics}), the counter sources its
    components registered ({!add_counters}), a bounded ring of typed
    events ({!Event}) and the host-side phase timers ({!Timer}).

    A sink keeps no count of its own: each counter is a field of the
    stats record of the component that counts it, and the sink reads it
    when a snapshot is taken. Hot paths (the cache, the pipeline) guard
    payload construction with {!is_active} so that the noop case does not
    even allocate the event. *)

type t

val noop : t
(** Discards everything at unit cost. *)

val create :
  ?ring_capacity:int ->
  ?span_capacity:int ->
  ?seed:int64 ->
  ?attrib:bool ->
  unit ->
  t
(** An active sink. Default ring capacity 65536 events; [seed] feeds the
    histogram reservoirs (see {!Metrics.create}). [attrib:true] attaches
    a cycle-attribution ledger ({!Attrib}): the pipeline, interpreter
    hooks and processor classify every simulated cycle into it. *)

val is_active : t -> bool
(** False only for {!noop}: payload construction behind an [is_active]
    guard is skipped when nothing would record it. *)

val attrib : t -> Attrib.t option
(** The cycle-attribution ledger, when this sink was created with
    [~attrib:true]. [None] on {!noop} and plain active sinks. *)

val set_cycle_source : t -> (unit -> int64) -> unit
(** Install the simulated-clock reader used to timestamp events (the
    processor wires this to its cycle counter). Until set, events are
    stamped with cycle 0. No-op on {!noop}. *)

(** {2 Recording} *)

val event : t -> ?pc:int -> ?region:int -> Event.kind -> unit

val add_counters : t -> (unit -> (string * int) list) -> unit
(** Register a counter source: a function listing counter names with
    their current values, read from its component's stats record at
    every snapshot. A source lists its names from the start, at zero
    until something is counted. It must close over that record, never
    over its component, so that a sink outliving a run keeps only the
    run's counts alive. Nothing on {!noop}. *)

val set_gauge : t -> string -> float -> unit

val observe : t -> string -> float -> unit
(** Record a histogram sample. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Wall-clock a host-side DBT phase; on {!noop} this is just [f ()]. *)

(** {2 Reading} *)

val counters : t -> (string * int) list
(** Every registered source, read now: sorted by name, with the values
    of equal names summed (a sink watching many runs adds them up).
    [[]] on {!noop}. *)

val events : t -> Event.t list
(** Retained events, oldest first; [] on {!noop}. *)

val dropped_events : t -> int

val timer_totals : t -> Timer.total list

val metrics_json : t -> Gb_util.Json.t
(** A ["counters"] object ({!counters}), the {!Metrics.to_json} gauges
    and histograms, a ["host_phases"] object (wall-clock totals per DBT
    phase) and ["events"] retention counts. [Obj []] on {!noop}. *)

val trace_json : t -> Gb_util.Json.t
(** The event ring and timer spans in Chrome [trace_event] JSON format
    (see {!Trace_export.to_json}); an empty trace on {!noop}. *)
