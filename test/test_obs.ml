(* Tests for the observability library: ring-buffer wraparound, metrics
   snapshots, sink behavior and the Chrome trace_event JSON export. *)

open Gb_obs

let ring_basic () =
  let r = Ring.create 4 in
  Alcotest.(check int) "empty" 0 (Ring.length r);
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check (list int)) "order" [ 1; 2 ] (Ring.to_list r);
  Alcotest.(check int) "no drops" 0 (Ring.dropped r)

let ring_wraparound () =
  let r = Ring.create 3 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "capacity bound" 3 (Ring.length r);
  Alcotest.(check int) "pushed" 5 (Ring.pushed r);
  Alcotest.(check int) "dropped" 2 (Ring.dropped r);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 3; 4; 5 ]
    (Ring.to_list r);
  Ring.push r 6;
  Alcotest.(check (list int)) "keeps rolling" [ 4; 5; 6 ] (Ring.to_list r);
  Ring.clear r;
  Alcotest.(check (list int)) "clear" [] (Ring.to_list r)

let ring_wraparound_prop =
  QCheck.Test.make ~count:200 ~name:"ring retains the newest [cap] pushes"
    QCheck.(pair (int_range 1 16) (list_of_size (Gen.int_range 0 100) small_int))
    (fun (cap, xs) ->
      let r = Ring.create cap in
      List.iter (Ring.push r) xs;
      let n = List.length xs in
      let expected =
        List.filteri (fun i _ -> i >= n - min n cap) xs
      in
      Ring.to_list r = expected && Ring.dropped r = max 0 (n - cap))

(* A counter is a field its component counts; the sink reads it. *)
let metrics_counters () =
  let s = Sink.create () in
  Alcotest.(check (list (pair string int))) "no source, no counter" []
    (Sink.counters s);
  let stats = ref 0 in
  Sink.add_counters s (fun () -> [ ("a", !stats) ]);
  Alcotest.(check (list (pair string int))) "listed at zero" [ ("a", 0) ]
    (Sink.counters s);
  stats := !stats + 5;
  Alcotest.(check (list (pair string int))) "reads the field" [ ("a", 5) ]
    (Sink.counters s);
  let m = Metrics.create () in
  Metrics.set_gauge m "g" 2.5;
  Alcotest.(check (option (float 1e-9))) "gauge" (Some 2.5)
    (Metrics.gauge_value m "g");
  Metrics.set_gauge m "g" 7.;
  Alcotest.(check (option (float 1e-9))) "gauge overwrites" (Some 7.)
    (Metrics.gauge_value m "g")

let metrics_histogram () =
  let m = Metrics.create () in
  Alcotest.(check bool) "unset histogram" true
    (Metrics.histogram_snapshot m "h" = None);
  for i = 1 to 100 do
    Metrics.observe m "h" (float_of_int i)
  done;
  match Metrics.histogram_snapshot m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
    Alcotest.(check int) "count" 100 s.Metrics.h_count;
    Alcotest.(check (float 1e-9)) "sum" 5050. s.Metrics.h_sum;
    Alcotest.(check (float 1e-9)) "min" 1. s.Metrics.h_min;
    Alcotest.(check (float 1e-9)) "max" 100. s.Metrics.h_max;
    Alcotest.(check (float 1e-9)) "p50 nearest-rank" 50. s.Metrics.h_p50;
    Alcotest.(check (float 1e-9)) "p99 nearest-rank" 99. s.Metrics.h_p99;
    (* log2 buckets: 1, 2, 4, ..., 128 *)
    Alcotest.(check int) "bucket count" 8 (List.length s.Metrics.h_buckets);
    let total = List.fold_left (fun acc (_, n) -> acc + n) 0 s.Metrics.h_buckets in
    Alcotest.(check int) "buckets partition samples" 100 total;
    let le, n = List.hd s.Metrics.h_buckets in
    Alcotest.(check (float 1e-9)) "first bound" 1. le;
    Alcotest.(check int) "samples <= 1" 1 n

let metrics_json_shape () =
  let m = Metrics.create () in
  Metrics.set_gauge m "z.level" 1.;
  Metrics.observe m "lat" 3.;
  (match Metrics.to_json m with
  | Gb_util.Json.Obj fields ->
    Alcotest.(check (list string)) "sections" [ "gauges"; "histograms" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "metrics snapshot is not an object");
  let s = Sink.create () in
  Sink.add_counters s (fun () -> [ ("z.count", 1) ]);
  match Sink.metrics_json s with
  | Gb_util.Json.Obj fields ->
    Alcotest.(check (list string)) "sink sections"
      [ "counters"; "gauges"; "histograms"; "host_phases"; "events" ]
      (List.map fst fields);
    Alcotest.(check bool) "counter present" true
      (List.assoc "counters" fields
      = Gb_util.Json.Obj [ ("z.count", Gb_util.Json.Int 1) ])
  | _ -> Alcotest.fail "sink snapshot is not an object"

let sink_noop () =
  let s = Sink.noop in
  Alcotest.(check bool) "inactive" false (Sink.is_active s);
  (* all recording is a no-op and nothing is readable back *)
  Sink.observe s "h" 1.;
  Sink.event s Event.Rollback;
  Alcotest.(check int) "ran the thunk" 42 (Sink.time s "phase" (fun () -> 42));
  Alcotest.(check bool) "no metrics" true (Sink.metrics s = None);
  Alcotest.(check (list reject)) "no events" [] (Sink.events s);
  Alcotest.(check bool) "empty snapshot" true
    (Sink.metrics_json s = Gb_util.Json.Obj [])

let sink_records () =
  let s = Sink.create ~ring_capacity:8 () in
  let cycle = ref 0L in
  Sink.set_cycle_source s (fun () -> !cycle);
  cycle := 17L;
  Sink.event s ~pc:0x100 ~region:0x80 Event.Translate_start;
  Sink.add_counters s (fun () -> [ ("translate.translations", 1) ]);
  Alcotest.(check int) "timer result" 7 (Sink.time s "codegen" (fun () -> 7));
  (match Sink.events s with
  | [ e ] ->
    Alcotest.(check int) "pc" 0x100 e.Event.pc;
    Alcotest.(check int) "region" 0x80 e.Event.region;
    Alcotest.(check int64) "cycle stamp" 17L e.Event.cycle
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  Alcotest.(check (list (pair string int))) "counter visible"
    [ ("translate.translations", 1) ]
    (Sink.counters s);
  match Sink.timer_totals s with
  | [ t ] ->
    Alcotest.(check string) "phase name" "codegen" t.Timer.t_phase;
    Alcotest.(check int) "calls" 1 t.Timer.t_calls
  | ts -> Alcotest.failf "expected 1 phase, got %d" (List.length ts)

(* --- counters ----------------------------------------------------------- *)

let sources_sum () =
  let s = Sink.create () in
  Sink.add_counters s (fun () -> [ ("b", 1); ("a", 2) ]);
  Sink.add_counters s (fun () -> [ ("a", 3); ("c", 0) ]);
  Alcotest.(check (list (pair string int))) "sorted, equal names summed"
    [ ("a", 5); ("b", 1); ("c", 0) ]
    (Sink.counters s)

let noop_ignores_sources () =
  let read = ref false in
  Sink.add_counters Sink.noop (fun () ->
      read := true;
      [ ("a", 1) ]);
  Alcotest.(check (list (pair string int))) "no counters" []
    (Sink.counters Sink.noop);
  Alcotest.(check bool) "never read" false !read

let read_at_snapshot () =
  let s = Sink.create () in
  let stats = ref 0 in
  Sink.add_counters s (fun () -> [ ("a", !stats) ]);
  let snapshot () =
    match Sink.metrics_json s with
    | Gb_util.Json.Obj fields -> List.assoc "counters" fields
    | _ -> Alcotest.fail "sink snapshot is not an object"
  in
  let before = snapshot () in
  stats := 7;
  Alcotest.(check bool) "an earlier snapshot keeps its value" true
    (before = Gb_util.Json.Obj [ ("a", Gb_util.Json.Int 0) ]);
  Alcotest.(check bool) "a later one reads the new value" true
    (snapshot () = Gb_util.Json.Obj [ ("a", Gb_util.Json.Int 7) ])

let assemble name =
  match Gb_workloads.Polybench.by_name name with
  | Some w -> Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program
  | None -> Alcotest.failf "%s workload missing" name

(* Two processor runs on one sink: each counter is the sum of the result
   fields the two runs counted it in. *)
let two_runs_add_up () =
  let module P = Gb_system.Processor in
  let s = Sink.create () in
  let run mode name = P.run_program ~config:(P.config_for mode) ~obs:s (assemble name) in
  let r1 = run Gb_core.Mitigation.Fine_grained "gemm"
  and r2 = run Gb_core.Mitigation.Unsafe "atax" in
  let counters = Sink.counters s in
  List.iter
    (fun (name, field) ->
      Alcotest.(check (option int)) name
        (Some (field r1 + field r2))
        (List.assoc_opt name counters))
    [
      ("translate.translations", fun r -> r.P.translations);
      ("translate.first_pass", fun r -> r.P.first_pass_translations);
      ("mitigation.patterns_found", fun r -> r.P.patterns_found);
      ("mitigation.loads_constrained", fun r -> r.P.loads_constrained);
      ("mitigation.fences_inserted", fun r -> r.P.fences_inserted);
      ("vliw.trace_runs", fun r -> Int64.to_int r.P.trace_runs);
      ("vliw.side_exits", fun r -> Int64.to_int r.P.side_exits);
      ("vliw.rollbacks", fun r -> Int64.to_int r.P.rollbacks);
      ("code_cache.evictions", fun r -> r.P.cc_evictions);
    ]

(* A source holds its component's stats record, not the component: a
   sink that outlives a run keeps the run's counts, and the processor
   goes. *)
let run_into weak s =
  let p = Gb_system.Processor.create ~obs:s (assemble "gemm") in
  ignore (Gb_system.Processor.run p);
  Weak.set weak 0 (Some p)
[@@inline never]

let finished_processor_collected () =
  let s = Sink.create () in
  let weak = Weak.create 1 in
  run_into weak s;
  Gc.full_major ();
  Alcotest.(check bool) "the processor is collected" false (Weak.check weak 0);
  Alcotest.(check bool) "its counts are still read" true
    (List.assoc "vliw.trace_runs" (Sink.counters s) > 0)

let trace_json_shape () =
  let s = Sink.create () in
  let cycle = ref 5L in
  Sink.set_cycle_source s (fun () -> !cycle);
  Sink.event s ~pc:0x44 ~region:0x40 (Event.Mcb_conflict { addr = 0x44 });
  cycle := 9L;
  Sink.event s ~pc:0x48 ~region:0x40 Event.Rollback;
  ignore (Sink.time s "schedule" (fun () -> ()));
  let json = Sink.trace_json s in
  (* the export must be valid JSON that round-trips through our parser *)
  let reparsed =
    match Gb_util.Json.of_string (Gb_util.Json.to_string json) with
    | Ok v -> v
    | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  in
  Alcotest.(check bool) "round-trips" true (reparsed = json);
  match json with
  | Gb_util.Json.Obj fields ->
    (match List.assoc "traceEvents" fields with
    | Gb_util.Json.List events ->
      let field name = function
        | Gb_util.Json.Obj fs -> List.assoc_opt name fs
        | _ -> None
      in
      let phases =
        List.filter_map (fun e -> field "ph" e) events
      in
      (* metadata, two instants, one complete span *)
      Alcotest.(check bool) "has metadata events" true
        (List.mem (Gb_util.Json.String "M") phases);
      Alcotest.(check int) "two instants" 2
        (List.length
           (List.filter (fun p -> p = Gb_util.Json.String "i") phases));
      Alcotest.(check int) "one span" 1
        (List.length
           (List.filter (fun p -> p = Gb_util.Json.String "X") phases));
      let rollback =
        List.find
          (fun e -> field "name" e = Some (Gb_util.Json.String "rollback"))
          events
      in
      Alcotest.(check bool) "instant ts is the simulated cycle" true
        (field "ts" rollback = Some (Gb_util.Json.Int 9));
      Alcotest.(check bool) "instant tid is the region" true
        (field "tid" rollback = Some (Gb_util.Json.Int 0x40));
      let span =
        List.find (fun e -> field "ph" e = Some (Gb_util.Json.String "X")) events
      in
      Alcotest.(check bool) "span carries a duration" true
        (match field "dur" span with
        | Some (Gb_util.Json.Float _) -> true
        | _ -> false)
    | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "trace is not an object"

(* Sub-microsecond phases (a first-pass translation, poisoning) must not
   round to 0 or 1 us: timed empty thunks read positive and below 1 us.
   The median keeps a preempted call from deciding it. *)
let sub_us_phases () =
  let t = Timer.create () in
  for _ = 1 to 1001 do
    Timer.time t "empty" ignore
  done;
  let a =
    Array.of_list (List.map (fun sp -> sp.Timer.sp_dur_us) (Timer.spans t))
  in
  Array.sort Float.compare a;
  Alcotest.(check int) "Timer.time: spans" 1001 (Array.length a);
  let median = a.(Array.length a / 2) in
  if not (median > 0. && median < 1.) then
    Alcotest.failf "Timer.time: median empty-phase span %.3f us, want in (0, 1)"
      median

let event_json () =
  let e =
    {
      Event.kind = Event.Cache_miss { addr = 64; write = true };
      pc = 64;
      region = 0;
      cycle = 3L;
    }
  in
  Alcotest.(check string) "event json"
    {|{"event":"cache_miss","pc":64,"region":0,"cycle":3,"addr":64,"write":true}|}
    (Gb_util.Json.to_string (Event.to_json e))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick ring_basic;
          Alcotest.test_case "wraparound" `Quick ring_wraparound;
          qt ring_wraparound_prop;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick metrics_counters;
          Alcotest.test_case "histogram" `Quick metrics_histogram;
          Alcotest.test_case "json shape" `Quick metrics_json_shape;
        ] );
      ( "sink",
        [
          Alcotest.test_case "noop" `Quick sink_noop;
          Alcotest.test_case "records" `Quick sink_records;
        ] );
      ( "counters",
        [
          Alcotest.test_case "equal names from two sources sum" `Quick
            sources_sum;
          Alcotest.test_case "noop ignores sources" `Quick noop_ignores_sources;
          Alcotest.test_case "a value is read at snapshot time" `Quick
            read_at_snapshot;
          Alcotest.test_case "two runs on one sink add up" `Quick
            two_runs_add_up;
          Alcotest.test_case "a finished processor is collected" `Quick
            finished_processor_collected;
        ] );
      ( "trace export",
        [
          Alcotest.test_case "chrome shape" `Quick trace_json_shape;
          Alcotest.test_case "event json" `Quick event_json;
          Alcotest.test_case "sub-us phases resolve" `Quick sub_us_phases;
        ] );
    ]
