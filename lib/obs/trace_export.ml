let guest_pid = 1

let host_pid = 2

let leakage_pid = 3

let attrib_pid = 4

let process_meta pid name =
  let module J = Gb_util.Json in
  J.Obj
    [
      ("name", J.String "process_name");
      ("ph", J.String "M");
      ("pid", J.Int pid);
      ("tid", J.Int 0);
      ("args", J.Obj [ ("name", J.String name) ]);
    ]

let meta_events =
  [
    process_meta guest_pid "guest (ts = simulated cycles)";
    process_meta host_pid "dbt-host (ts = wall-clock us)";
  ]

(* Transient cache lines found by the leakage audit live on their own
   process so the security signal is one self-contained track group, not
   interleaved with the ordinary guest events. *)
let is_transient (e : Event.t) =
  match e.Event.kind with Event.Transient_line _ -> true | _ -> false

(* Attribution samples render as a Chrome counter track ("ph":"C"): two
   stacked lanes, cycles doing committed work vs cycles of overhead, so
   the speculative/mitigation cost is visible as a band over time. *)
let is_attrib (e : Event.t) =
  match e.Event.kind with Event.Cycle_attrib _ -> true | _ -> false

let counter_event (e : Event.t) =
  let module J = Gb_util.Json in
  J.Obj
    [
      ("name", J.String "cycles (committed vs overhead)");
      ("cat", J.String "attrib");
      ("ph", J.String "C");
      ("ts", J.Int e.Event.cycle);
      ("pid", J.Int attrib_pid);
      ("tid", J.Int 0);
      ("args", J.Obj (Event.args e.Event.kind));
    ]

(* One track per region keeps a region's translate/rollback/miss history
   on its own horizontal line. tid 0 is reserved for unattributed events. *)
let thread_name_events ~pid events =
  let module J = Gb_util.Json in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (e : Event.t) ->
      if e.Event.region <> 0 && not (Hashtbl.mem seen e.Event.region) then
        Hashtbl.add seen e.Event.region ())
    events;
  Hashtbl.fold
    (fun region () acc ->
      J.Obj
        [
          ("name", J.String "thread_name");
          ("ph", J.String "M");
          ("pid", J.Int pid);
          ("tid", J.Int region);
          ("args", J.Obj [ ("name", J.String (Printf.sprintf "region 0x%x" region)) ]);
        ]
      :: acc)
    seen []
  |> List.sort compare

let guest_event ?(pid = guest_pid) (e : Event.t) =
  let module J = Gb_util.Json in
  J.Obj
    [
      ("name", J.String (Event.name e.Event.kind));
      ("cat", J.String (if pid = leakage_pid then "leakage" else "guest"));
      ("ph", J.String "i");
      ("s", J.String "t");  (* thread-scoped instant *)
      ("ts", J.Int e.Event.cycle);
      ("pid", J.Int pid);
      ("tid", J.Int e.Event.region);
      ( "args",
        J.Obj
          ([ ("pc", J.Int e.Event.pc); ("region", J.Int e.Event.region) ]
          @ Event.args e.Event.kind) );
    ]

let host_span (s : Timer.span) =
  let module J = Gb_util.Json in
  J.Obj
    [
      ("name", J.String s.Timer.sp_phase);
      ("cat", J.String "dbt");
      ("ph", J.String "X");
      ("ts", J.Float s.Timer.sp_start_us);
      ("dur", J.Float s.Timer.sp_dur_us);
      ("pid", J.Int host_pid);
      ("tid", J.Int 1);
    ]

let to_json ?(dropped = 0) ~events ~spans () =
  let module J = Gb_util.Json in
  let transient, rest = List.partition is_transient events in
  let attrib, ordinary = List.partition is_attrib rest in
  let leakage_meta =
    if transient = [] then []
    else
      process_meta leakage_pid "leakage (transient cache lines)"
      :: thread_name_events ~pid:leakage_pid transient
  in
  let attrib_meta =
    if attrib = [] then []
    else [ process_meta attrib_pid "cycle attribution (committed vs overhead)" ]
  in
  J.Obj
    ([
       ( "traceEvents",
         J.List
           (meta_events
           @ leakage_meta
           @ attrib_meta
           @ thread_name_events ~pid:guest_pid ordinary
           @ List.map (guest_event ~pid:guest_pid) ordinary
           @ List.map (guest_event ~pid:leakage_pid) transient
           @ List.map counter_event attrib
           @ List.map host_span spans) );
       ("displayTimeUnit", J.String "ms");
     ]
    (* the ring wrapped: record how many events this trace is missing so
       a truncated export is self-describing *)
    @ if dropped > 0 then [ ("droppedEvents", J.Int dropped) ] else [])
