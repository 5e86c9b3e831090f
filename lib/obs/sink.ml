type active = {
  metrics : Metrics.t;
  mutable sources : (unit -> (string * int) list) list;
  events : Event.t Ring.t;
  timers : Timer.t;
  attrib : Attrib.t option;
  mutable cycle_source : unit -> int64;
  mutable ring_warned : bool;
}

type t = Noop | Active of active

let noop = Noop

let create ?(ring_capacity = 65536) ?span_capacity ?seed ?(attrib = false) () =
  Active
    {
      metrics = Metrics.create ?seed ();
      sources = [];
      events = Ring.create ring_capacity;
      timers = Timer.create ?span_capacity ();
      attrib = (if attrib then Some (Attrib.create ()) else None);
      cycle_source = (fun () -> 0L);
      ring_warned = false;
    }

let is_active = function Noop -> false | Active _ -> true

let attrib = function Noop -> None | Active a -> a.attrib

let set_cycle_source t f =
  match t with Noop -> () | Active a -> a.cycle_source <- f

let event t ?(pc = 0) ?(region = 0) kind =
  match t with
  | Noop -> ()
  | Active a ->
    Ring.push a.events { Event.kind; pc; region; cycle = a.cycle_source () };
    (* a wrapped ring silently forgets history: the ring counts what it
       dropped (see {!dropped_events}), and the first drop is said once *)
    if (not a.ring_warned) && Ring.dropped a.events > 0 then begin
      a.ring_warned <- true;
      Printf.eprintf
        "ghostbusters: warning: event ring wrapped (capacity %d); oldest \
         events dropped, the exported Chrome trace will be truncated\n\
         %!"
        (Ring.capacity a.events)
    end

let add_counters t source =
  match t with Noop -> () | Active a -> a.sources <- source :: a.sources

let set_gauge t name v =
  match t with
  | Noop -> ()
  | Active a -> Metrics.set_gauge a.metrics name v

let observe t name v =
  match t with
  | Noop -> ()
  | Active a -> Metrics.observe a.metrics name v

let time t phase f =
  match t with
  | Noop -> f ()
  | Active a -> Timer.time a.timers phase f

let metrics = function Noop -> None | Active a -> Some a.metrics

(* equal names are adjacent once sorted: sum them *)
let rec merge = function
  | (n, x) :: (m, y) :: rest when String.equal n m -> merge ((n, x + y) :: rest)
  | c :: rest -> c :: merge rest
  | [] -> []

let counters = function
  | Noop -> []
  | Active a ->
    merge
      (List.sort
         (fun (n, _) (m, _) -> String.compare n m)
         (List.concat_map (fun source -> source ()) a.sources))

let events = function Noop -> [] | Active a -> Ring.to_list a.events

let dropped_events = function Noop -> 0 | Active a -> Ring.dropped a.events

let timer_totals = function Noop -> [] | Active a -> Timer.totals a.timers

let metrics_json t =
  let module J = Gb_util.Json in
  match t with
  | Noop -> J.Obj []
  | Active a ->
    (* sorted by phase name: {!Timer.totals} orders by wall-clock total,
       which varies run to run — dumps must diff stably *)
    let phases =
      List.map
        (fun { Timer.t_phase; t_calls; t_total_us } ->
          ( t_phase,
            J.Obj [ ("calls", J.Int t_calls); ("total_us", J.Float t_total_us) ]
          ))
        (List.sort
           (fun a b -> compare a.Timer.t_phase b.Timer.t_phase)
           (Timer.totals a.timers))
    in
    let base =
      match Metrics.to_json a.metrics with
      | J.Obj fields -> fields
      | other -> [ ("metrics", other) ]
    in
    let counters = List.map (fun (name, n) -> (name, J.Int n)) (counters t) in
    J.Obj
      ((("counters", J.Obj counters) :: base)
      @ [
          ("host_phases", J.Obj phases);
          ( "events",
            J.Obj
              [
                ("retained", J.Int (Ring.length a.events));
                ("dropped", J.Int (Ring.dropped a.events));
              ] );
        ])

let trace_json t =
  match t with
  | Noop -> Trace_export.to_json ~events:[] ~spans:[] ()
  | Active a ->
    Trace_export.to_json
      ~dropped:(Ring.dropped a.events)
      ~events:(Ring.to_list a.events)
      ~spans:(Timer.spans a.timers)
      ()
