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

let metrics_counters () =
  let m = Metrics.create () in
  Alcotest.(check int) "unset counter" 0 (Metrics.counter_value m "a");
  Metrics.incr m "a";
  Metrics.incr m ~by:4 "a";
  Alcotest.(check int) "accumulates" 5 (Metrics.counter_value m "a");
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.incr: counters are monotonic") (fun () ->
      Metrics.incr m ~by:(-1) "a");
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
  Metrics.incr m "z.count";
  Metrics.observe m "lat" 3.;
  match Metrics.to_json m with
  | Gb_util.Json.Obj fields ->
    Alcotest.(check (list string)) "sections"
      [ "counters"; "gauges"; "histograms" ]
      (List.map fst fields);
    let counters = List.assoc "counters" fields in
    Alcotest.(check bool) "counter present" true
      (counters = Gb_util.Json.Obj [ ("z.count", Gb_util.Json.Int 1) ])
  | _ -> Alcotest.fail "metrics snapshot is not an object"

let sink_noop () =
  let s = Sink.noop in
  Alcotest.(check bool) "inactive" false (Sink.is_active s);
  (* all recording is a no-op and nothing is readable back *)
  Sink.incr s "c";
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
  Sink.incr s "translate.translations";
  Alcotest.(check int) "timer result" 7 (Sink.time s "codegen" (fun () -> 7));
  (match Sink.events s with
  | [ e ] ->
    Alcotest.(check int) "pc" 0x100 e.Event.pc;
    Alcotest.(check int) "region" 0x80 e.Event.region;
    Alcotest.(check int64) "cycle stamp" 17L e.Event.cycle
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  (match Sink.metrics s with
  | Some m ->
    Alcotest.(check int) "counter visible" 1
      (Metrics.counter_value m "translate.translations")
  | None -> Alcotest.fail "active sink has metrics");
  match Sink.timer_totals s with
  | [ t ] ->
    Alcotest.(check string) "phase name" "codegen" t.Timer.t_phase;
    Alcotest.(check int) "calls" 1 t.Timer.t_calls
  | ts -> Alcotest.failf "expected 1 phase, got %d" (List.length ts)

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
   round to 0 or 1 us: timed empty thunks read positive and below 1 us,
   through both the direct timer and a buffered sink replayed into an
   active one. The median keeps a preempted call from deciding it. *)
let sub_us_phases () =
  let check name durs =
    let a = Array.of_list durs in
    Array.sort Float.compare a;
    Alcotest.(check int) (name ^ ": spans") 1001 (Array.length a);
    let median = a.(Array.length a / 2) in
    if not (median > 0. && median < 1.) then
      Alcotest.failf "%s: median empty-phase span %.3f us, want in (0, 1)"
        name median
  in
  let t = Timer.create () in
  for _ = 1 to 1001 do
    Timer.time t "empty" ignore
  done;
  check "Timer.time" (List.map (fun sp -> sp.Timer.sp_dur_us) (Timer.spans t));
  let b = Sink.buffer () in
  for _ = 1 to 1001 do
    Sink.time b "empty" ignore
  done;
  let s = Sink.create () in
  Sink.replay b ~into:s;
  let durs =
    match Sink.trace_json s with
    | Gb_util.Json.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Gb_util.Json.List events) ->
        List.filter_map
          (function
            | Gb_util.Json.Obj fs
              when List.assoc_opt "name" fs = Some (Gb_util.Json.String "empty")
              -> (
              match List.assoc_opt "dur" fs with
              | Some (Gb_util.Json.Float d) -> Some d
              | _ -> None)
            | _ -> None)
          events
      | _ -> [])
    | _ -> []
  in
  check "buffered Sink.time" durs

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
      ( "trace export",
        [
          Alcotest.test_case "chrome shape" `Quick trace_json_shape;
          Alcotest.test_case "event json" `Quick event_json;
          Alcotest.test_case "sub-us phases resolve" `Quick sub_us_phases;
        ] );
    ]
