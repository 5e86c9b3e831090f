(** Detailed execution report for one finished run: execution-tier
    breakdown, achieved ILP, cache behaviour, and a table of the hottest
    translated regions — the numbers one inspects when studying what the
    DBT layer actually did to a workload. *)

type region_row = {
  entry : int;  (** guest pc *)
  tier : string;  (** "trace" or "block" *)
  runs : int;
  guest_insns : int;
  bundles : int;
  ipc : float;  (** guest instructions per bundle (upper bound on ILP) *)
  spec_loads : int;
  patterns : int;
}

type t = {
  result : Processor.result;
  translated_share : float;
      (** the share of the result's [guest_insns] not executed by the
          interpreter *)
  overall_ipc : float;  (** guest instructions per cycle over the whole run *)
  cache_reads : int;
  cache_read_miss_rate : float;
  cache_writes : int;
  cache_write_miss_rate : float;
  regions : region_row list;  (** hottest first *)
  metrics : Gb_util.Json.t;
      (** {!Gb_obs.Sink.metrics_json} snapshot of the processor's sink;
          [Obj []] when the run used the noop sink *)
}

val of_processor : Processor.t -> Processor.result -> t
(** Build the report after {!Processor.run} returned. *)

val pp : ?max_regions:int -> Format.formatter -> t -> unit

val to_json : t -> Gb_util.Json.t
