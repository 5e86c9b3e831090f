(* Perf trajectory: manifest schema, baseline comparison, regression gate. *)

module M = Gb_perf.Manifest
module B = Gb_perf.Baseline

let mk ?(seq = 1) ?(rev = "aaaa111") ?(verdicts = []) metrics =
  M.make ~seq ~rev ~seed:1L ~env:[ ("os", "test") ]
    ~config:[ ("cc_capacity", Gb_util.Json.Int 1024) ]
    ~verdicts metrics

let check_status what expected (cmp : B.comparison) name =
  match List.find_opt (fun c -> c.B.c_name = name) cmp.B.cells with
  | None -> Alcotest.failf "%s: no cell named %S" what name
  | Some c ->
    Alcotest.(check string)
      (Printf.sprintf "%s: %s" what name)
      (B.status_name expected)
      (B.status_name c.B.c_status)

(* --- manifest schema ---------------------------------------------------- *)

let test_round_trip () =
  let m =
    mk
      ~verdicts:[ ("e1.v1.unsafe.leaked", true); ("e10.passed", false) ]
      [ ("cycles.e2.gemm.unsafe", 87120.); ("counter.trace.run", 42.) ]
  in
  match M.of_json (M.to_json m) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok m' ->
    Alcotest.(check int) "schema_version" M.current_version m'.M.schema_version;
    Alcotest.(check int) "seq" m.M.seq m'.M.seq;
    Alcotest.(check string) "rev" m.M.rev m'.M.rev;
    Alcotest.(check int64) "seed" m.M.seed m'.M.seed;
    Alcotest.(check (list (pair string string))) "env" m.M.env m'.M.env;
    Alcotest.(check (list (pair string (float 0.))))
      "metrics" m.M.metrics m'.M.metrics;
    Alcotest.(check (list (pair string bool)))
      "verdicts" m.M.verdicts m'.M.verdicts

let test_string_round_trip () =
  let m = mk [ ("cycles.x", 1.5) ] in
  match M.of_string (M.to_string m) with
  | Error e -> Alcotest.failf "string round trip failed: %s" e
  | Ok m' ->
    Alcotest.(check (float 0.))
      "metric survives printing" 1.5
      (Option.get (M.metric m' "cycles.x"))

let test_sort_dedup () =
  (* metric maps are sorted and the last binding of a duplicate wins *)
  let m = mk [ ("z", 1.); ("a", 2.); ("z", 3.) ] in
  Alcotest.(check (list (pair string (float 0.))))
    "sorted, last binding wins"
    [ ("a", 2.); ("z", 3.) ]
    m.M.metrics

let patch_version v json =
  match json with
  | Gb_util.Json.Obj fields ->
    Gb_util.Json.Obj
      (List.map
         (fun (k, x) ->
           if k = "schema_version" then (k, Gb_util.Json.Int v) else (k, x))
         fields)
  | _ -> Alcotest.fail "manifest json is an object"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let test_schema_version_rejected () =
  let json = M.to_json (mk [ ("cycles.x", 1.) ]) in
  let reject what v =
    match M.of_json (patch_version v json) with
    | Ok _ -> Alcotest.failf "%s version accepted" what
    | Error e ->
      Alcotest.(check bool)
        (what ^ " error mentions the version")
        true
        (contains ~sub:"schema version" e)
  in
  reject "newer" (M.current_version + 1);
  reject "older" 0

let test_missing_field_rejected () =
  match
    M.of_json
      (Gb_util.Json.Obj [ ("schema_version", Gb_util.Json.Int M.current_version) ])
  with
  | Ok _ -> Alcotest.fail "manifest without sections accepted"
  | Error _ -> ()

let test_filename () =
  Alcotest.(check string) "filename" "BENCH_0042.json" (M.filename ~seq:42);
  Alcotest.(check (option int)) "inverse" (Some 42)
    (M.seq_of_filename "BENCH_0042.json");
  Alcotest.(check (option int)) "basename applies" (Some 7)
    (M.seq_of_filename "bench/trajectory/BENCH_0007.json");
  Alcotest.(check (option int)) "non-manifest" None
    (M.seq_of_filename "notes.json")

let with_temp_dir f =
  let dir = Filename.temp_file "gb_perf_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_file_round_trip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir (M.filename ~seq:1) in
      let m = mk ~verdicts:[ ("e10.passed", true) ] [ ("cycles.x", 2.) ] in
      M.write path m;
      match M.read path with
      | Error e -> Alcotest.failf "read back failed: %s" e
      | Ok m' ->
        Alcotest.(check (float 0.))
          "metric" 2.
          (Option.get (M.metric m' "cycles.x"));
        Alcotest.(check (option bool)) "verdict" (Some true)
          (M.verdict m' "e10.passed"))

(* --- comparison rules --------------------------------------------------- *)

let test_rule_dispatch () =
  let check name expected =
    Alcotest.(check bool) name true (B.rule_for name = expected)
  in
  check "cycles.e2.gemm.unsafe" (B.Lower_better B.default_tol_cycles);
  check "slowdown.e2.geomean.fine-grained" (B.Lower_better B.default_tol_cycles);
  check "exits_per_1k.e8.gemm.chain" (B.Lower_better B.default_tol_cycles);
  check "audit_fn.e1.spectre-v1.fine-grained" (B.Lower_better 0.);
  check "alloc.minor_words_per_kinsn.interp" (B.Lower_better B.default_tol_alloc);
  check "alloc.minor_words_per_kinsn.pipeline.min-cut"
    (B.Lower_better B.default_tol_alloc);
  check "counter.trace.run" B.Info;
  check "faults.e10.injected" B.Info;
  check "something.else" B.Info

let test_identical_passes () =
  let m =
    mk
      ~verdicts:[ ("e10.passed", true) ]
      [ ("cycles.x", 100.); ("audit_fn.x", 0.); ("counter.y", 7.) ]
  in
  let cmp = B.compare ~baseline:m m in
  Alcotest.(check bool) "passed" true cmp.B.passed;
  Alcotest.(check int) "regressed" 0 cmp.B.regressed;
  Alcotest.(check int) "unchanged = all cells" 4 cmp.B.unchanged

let test_tolerance_boundary () =
  let baseline = mk [ ("cycles.x", 100.) ] in
  (* exactly at the tolerance: not a regression (strictly-greater gate) *)
  let at = B.compare ~baseline (mk [ ("cycles.x", 101.) ]) in
  check_status "at tolerance" B.Unchanged at "cycles.x";
  (* just past it: regression *)
  let past = B.compare ~baseline (mk [ ("cycles.x", 101.1) ]) in
  check_status "past tolerance" B.Regressed past "cycles.x";
  Alcotest.(check bool) "past tolerance fails" false past.B.passed;
  (* symmetric on the way down: within tolerance is noise, past it is a win *)
  let down = B.compare ~baseline (mk [ ("cycles.x", 99.5) ]) in
  check_status "small improvement" B.Unchanged down "cycles.x";
  let win = B.compare ~baseline (mk [ ("cycles.x", 90.) ]) in
  check_status "real improvement" B.Improved win "cycles.x";
  Alcotest.(check bool) "improvement passes" true win.B.passed

let test_zero_cycle_cells () =
  let baseline = mk [ ("cycles.zero", 0.); ("audit_fn.x", 0.) ] in
  let same = B.compare ~baseline (mk [ ("cycles.zero", 0.); ("audit_fn.x", 0.) ]) in
  check_status "0 -> 0" B.Unchanged same "cycles.zero";
  (* 0 -> positive is an infinite relative increase: always a regression *)
  let grew = B.compare ~baseline (mk [ ("cycles.zero", 5.); ("audit_fn.x", 0.) ]) in
  check_status "0 -> 5" B.Regressed grew "cycles.zero";
  (match List.find_opt (fun c -> c.B.c_name = "cycles.zero") grew.B.cells with
  | Some c -> Alcotest.(check bool) "delta is +inf" true (c.B.c_delta = infinity)
  | None -> Alcotest.fail "cell missing");
  (* audit false negatives have zero tolerance: 0 -> 1 must gate *)
  let fn = B.compare ~baseline (mk [ ("cycles.zero", 0.); ("audit_fn.x", 1.) ]) in
  check_status "audit_fn 0 -> 1" B.Regressed fn "audit_fn.x";
  Alcotest.(check bool) "audit regression fails" false fn.B.passed

let test_missing_cells () =
  let baseline = mk [ ("cycles.gemm", 100.) ] in
  (* a kernel the baseline has never seen: added, not gated *)
  let added =
    B.compare ~baseline (mk [ ("cycles.gemm", 100.); ("cycles.atax", 50.) ])
  in
  check_status "new kernel" B.Added added "cycles.atax";
  Alcotest.(check bool) "added passes" true added.B.passed;
  (* a kernel the current run lost: removed, and lost coverage gates *)
  let wide = mk [ ("cycles.gemm", 100.); ("cycles.atax", 50.) ] in
  let lost = B.compare ~baseline:wide (mk [ ("cycles.gemm", 100.) ]) in
  check_status "lost kernel" B.Removed lost "cycles.atax";
  Alcotest.(check int) "no regression" 0 lost.B.regressed;
  Alcotest.(check bool) "removed fails" false lost.B.passed

let test_verdict_flip () =
  let baseline = mk ~verdicts:[ ("e10.passed", true); ("e1.leaked", true) ] [] in
  let flip =
    B.compare ~baseline (mk ~verdicts:[ ("e10.passed", false); ("e1.leaked", true) ] [])
  in
  check_status "verdict flip" B.Regressed flip "e10.passed";
  check_status "stable verdict" B.Unchanged flip "e1.leaked";
  Alcotest.(check bool) "any flip fails" false flip.B.passed;
  (* verdicts are Exact: a flip in the "good" direction still gates, the
     baseline must be refreshed deliberately *)
  let other =
    B.compare ~baseline:(mk ~verdicts:[ ("e1.leaked", true) ] [])
      (mk ~verdicts:[ ("e1.leaked", false) ] [])
  in
  check_status "flip towards good" B.Regressed other "e1.leaked"

let test_info_not_gated () =
  let baseline = mk [ ("counter.trace.run", 100.); ("faults.e10.injected", 3.) ] in
  let cmp =
    B.compare ~baseline
      (mk [ ("counter.trace.run", 9000.); ("faults.e10.injected", 0.) ])
  in
  Alcotest.(check bool) "informational churn passes" true cmp.B.passed;
  Alcotest.(check int) "no regressions" 0 cmp.B.regressed

(* --- trajectory loading ------------------------------------------------- *)

let test_trajectory_dir () =
  with_temp_dir (fun dir ->
      M.write
        (Filename.concat dir (M.filename ~seq:1))
        (mk ~seq:1 ~rev:"aaaa111" [ ("cycles.x", 100.) ]);
      M.write
        (Filename.concat dir (M.filename ~seq:2))
        (mk ~seq:2 ~rev:"bbbb222" [ ("cycles.x", 90.) ]);
      match B.load_dir dir with
      | Error e -> Alcotest.failf "load_dir failed: %s" e
      | Ok ms ->
        Alcotest.(check int) "two manifests" 2 (List.length ms);
        Alcotest.(check int) "next_seq" 3 (B.next_seq ms);
        (match B.select ms with
        | Some m -> Alcotest.(check string) "latest wins" "bbbb222" m.M.rev
        | None -> Alcotest.fail "select found nothing");
        (match B.select ~rev:"aaaa" ms with
        | Some m -> Alcotest.(check int) "rev prefix pin" 1 m.M.seq
        | None -> Alcotest.fail "rev pin found nothing");
        Alcotest.(check bool) "unknown rev" true (B.select ~rev:"ffff" ms = None))

let test_trajectory_rejects_bad_file () =
  with_temp_dir (fun dir ->
      M.write
        (Filename.concat dir (M.filename ~seq:1))
        (mk ~seq:1 [ ("cycles.x", 100.) ]);
      let oc = open_out (Filename.concat dir (M.filename ~seq:2)) in
      output_string oc "{ \"schema_version\": 999 }";
      close_out oc;
      match B.load_dir dir with
      | Ok _ -> Alcotest.fail "incompatible manifest silently accepted"
      | Error _ -> ())

let test_empty_dir_is_error () =
  with_temp_dir (fun dir ->
      match B.load_dir dir with
      | Ok _ -> Alcotest.fail "empty trajectory accepted"
      | Error _ -> ())

(* --- deliberate slowdowns are caught ------------------------------------ *)

(* Chaining pinned on: the [exits_per_1k.*.chain] cell measures chained
   execution, and under GHOSTBUSTERS_NO_CHAIN the default would be
   dispatcher-only for baseline and candidate alike. *)
let config_with ?cc_capacity ?hot_threshold () =
  let c = Gb_system.Processor.config_for Gb_core.Mitigation.Fine_grained in
  let engine = c.Gb_system.Processor.engine in
  let cache =
    { engine.Gb_dbt.Engine.cache with Gb_dbt.Code_cache.chain = true }
  in
  let cache =
    match cc_capacity with
    | Some capacity -> { cache with Gb_dbt.Code_cache.capacity }
    | None -> cache
  in
  let engine = { engine with Gb_dbt.Engine.cache } in
  let engine =
    match hot_threshold with
    | Some hot_threshold -> { engine with Gb_dbt.Engine.hot_threshold }
    | None -> engine
  in
  { c with Gb_system.Processor.engine }

let measure ~config kernel =
  let w =
    match Gb_workloads.Polybench.by_name kernel with
    | Some w -> w
    | None -> Alcotest.failf "unknown polybench kernel %S" kernel
  in
  let r =
    Gb_system.Processor.run_program ~config
      (Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program)
  in
  [
    (Printf.sprintf "cycles.t.%s.fine-grained" kernel, Int64.to_float r.cycles);
    ( Printf.sprintf "exits_per_1k.t.%s.chain" kernel,
      Int64.to_float r.Gb_system.Processor.dispatch_exits
      /. Int64.to_float r.Gb_system.Processor.guest_insns
      *. 1000. );
  ]

let test_cc_capacity_slowdown_detected () =
  (* a one-entry code cache thrashes: every trace transfer falls back to
     the dispatcher. Simulated cycles barely move (translation is charged
     to the host), so the exits-per-1k cell is the one that must gate. *)
  let baseline = mk (measure ~config:(config_with ()) "gemm") in
  let crippled =
    mk (measure ~config:(config_with ~cc_capacity:1 ()) "gemm")
  in
  let cmp = B.compare ~baseline crippled in
  Alcotest.(check bool) "crippled cache gates" false cmp.B.passed;
  let regressed = List.map (fun c -> c.B.c_name) (B.regressions cmp) in
  Alcotest.(check bool) "the dispatcher-exit cell regressed" true
    (List.mem "exits_per_1k.t.gemm.chain" regressed)

let test_interp_only_slowdown_detected () =
  (* an unreachable hot threshold keeps everything on the interpreter:
     a plain simulated-cycles regression *)
  let baseline = mk (measure ~config:(config_with ()) "gemm") in
  let interp_only =
    mk (measure ~config:(config_with ~hot_threshold:max_int ()) "gemm")
  in
  let cmp = B.compare ~baseline interp_only in
  check_status "interp-only cycles" B.Regressed cmp
    "cycles.t.gemm.fine-grained";
  Alcotest.(check bool) "interp-only gates" false cmp.B.passed

(* --- per-kind fault recovery counters (Gb_system.Inject) ---------------- *)

let test_inject_per_kind_accounting () =
  let obs = Gb_obs.Sink.create () in
  let t =
    Gb_system.Inject.create ~obs ~seed:3L
      [
        (Gb_system.Inject.Translate_fail, 1.0); (Gb_system.Inject.Evict, 1.0);
      ]
  in
  for _ = 1 to 5 do
    assert (Gb_system.Inject.fire t Gb_system.Inject.Translate_fail)
  done;
  assert (Gb_system.Inject.fire t Gb_system.Inject.Evict);
  Gb_system.Inject.mark_all_recovered t;
  Alcotest.(check int) "translate injected" 5
    (Gb_system.Inject.injected_by_kind t Gb_system.Inject.Translate_fail);
  Alcotest.(check int) "translate recovered" 5
    (Gb_system.Inject.recovered_by_kind t Gb_system.Inject.Translate_fail);
  Alcotest.(check int) "evict recovered" 1
    (Gb_system.Inject.recovered_by_kind t Gb_system.Inject.Evict);
  Alcotest.(check int) "aggregate matches" 6 (Gb_system.Inject.recovered t);
  (match Gb_system.Inject.by_kind t with
  | [ (Gb_system.Inject.Evict, 1, 1); (Gb_system.Inject.Translate_fail, 5, 5) ]
    -> ()
  | other ->
    Alcotest.failf "unexpected by_kind split (%d entries)" (List.length other));
  match Gb_obs.Sink.metrics obs with
  | None -> Alcotest.fail "active sink has metrics"
  | Some m ->
    Alcotest.(check int) "fault.recovered.translate counter" 5
      (Gb_obs.Metrics.counter_value m "fault.recovered.translate");
    Alcotest.(check int) "fault.recovered.evict counter" 1
      (Gb_obs.Metrics.counter_value m "fault.recovered.evict");
    Alcotest.(check int) "fault.recovered aggregate counter" 6
      (Gb_obs.Metrics.counter_value m "fault.recovered")

let test_inject_per_kind_through_oracle () =
  let obs = Gb_obs.Sink.create () in
  let program =
    match Gb_workloads.Polybench.by_name "gemm" with
    | Some w -> w.Gb_workloads.Polybench.program
    | None -> Alcotest.fail "gemm missing"
  in
  let r =
    Gb_diff.Oracle.run_kernel ~obs ~seed:3L
      ~inject:[ (Gb_system.Inject.Translate_fail, 1.0) ]
      program
  in
  Alcotest.(check bool) "oracle run clean" true (Gb_diff.Oracle.clean r);
  match Gb_obs.Sink.metrics obs with
  | None -> Alcotest.fail "active sink has metrics"
  | Some m ->
    let injected =
      Gb_obs.Metrics.counter_value m "fault.injected.translate"
    in
    Alcotest.(check bool) "per-kind faults observed" true (injected > 0);
    Alcotest.(check int) "per-kind recovered = injected" injected
      (Gb_obs.Metrics.counter_value m "fault.recovered.translate")

(* --- docs stay in step with the manifest ----------------------------- *)

(* [dune runtest] runs in _build/default/test, [dune exec] in the root *)
let in_repo path =
  Option.value ~default:path
    (List.find_opt Sys.file_exists [ Filename.concat ".." path; path ])

let observability_md = in_repo "docs/OBSERVABILITY.md"

let trajectory_dir = in_repo "bench/trajectory"

(* The first-column names of the markdown table under [heading]: every
   backticked span of the first cell, one list per row. *)
let table_names ~heading =
  let lines =
    In_channel.with_open_text observability_md In_channel.input_all
    |> String.split_on_char '\n'
  in
  let rec after_heading = function
    | [] -> Alcotest.failf "%s has no heading %S" observability_md heading
    | l :: rest -> if l = heading then rest else after_heading rest
  in
  let rec table acc = function
    | l :: rest when String.length l > 0 && l.[0] = '|' -> table (l :: acc) rest
    | [] -> List.rev acc
    | _ :: _ when acc <> [] -> List.rev acc
    | _ :: rest -> table acc rest
  in
  let first_cell row =
    let body = String.sub row 1 (String.length row - 1) in
    let n = String.length body in
    let rec cell_end i =
      if i + 3 > n then n
      else if String.sub body i 3 = " | " then i
      else cell_end (i + 1)
    in
    String.sub body 0 (cell_end 0)
  in
  let backticked cell =
    match String.split_on_char '`' cell with
    | [] -> []
    | _ :: parts -> List.filteri (fun i _ -> i mod 2 = 0) parts
  in
  match table [] (after_heading lines) with
  | _header :: _separator :: rows ->
    List.map (fun r -> backticked (first_cell r)) rows
  | _ -> Alcotest.failf "no table under %S" heading

let family name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let test_gate_rules_table () =
  let newest =
    match B.load_dir trajectory_dir with
    | Error e -> Alcotest.failf "trajectory: %s" e
    | Ok ms -> Option.get (B.select ms)
  in
  let families l = List.sort_uniq String.compare (List.map family l) in
  let in_manifest =
    families
      (List.map fst newest.M.metrics @ List.map fst newest.M.verdicts)
  in
  let rows = table_names ~heading:"### Metric naming and gate rules" in
  let documented = families (List.concat rows) in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "family %s of BENCH_%04d has a gate-rule row" f
           newest.M.seq)
        true (List.mem f documented))
    in_manifest;
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "gate-rule row %s occurs in BENCH_%04d" f newest.M.seq)
        true (List.mem f in_manifest))
    documented

let test_cause_table () =
  let documented =
    List.sort String.compare
      (List.concat (table_names ~heading:"### Cause taxonomy"))
  in
  let causes =
    List.sort String.compare
      (List.map Gb_obs.Attrib.cause_name Gb_obs.Attrib.all_causes)
  in
  Alcotest.(check (list string)) "cause table = Attrib.all_causes" causes
    documented

let () =
  Alcotest.run "perf"
    [
      ( "manifest",
        [
          Alcotest.test_case "json round trip" `Quick test_round_trip;
          Alcotest.test_case "string round trip" `Quick test_string_round_trip;
          Alcotest.test_case "sort + dedup" `Quick test_sort_dedup;
          Alcotest.test_case "schema version rejected" `Quick
            test_schema_version_rejected;
          Alcotest.test_case "missing sections rejected" `Quick
            test_missing_field_rejected;
          Alcotest.test_case "trajectory filenames" `Quick test_filename;
          Alcotest.test_case "file round trip" `Quick test_file_round_trip;
        ] );
      ( "compare",
        [
          Alcotest.test_case "rule dispatch" `Quick test_rule_dispatch;
          Alcotest.test_case "identical manifests pass" `Quick
            test_identical_passes;
          Alcotest.test_case "tolerance boundaries" `Quick
            test_tolerance_boundary;
          Alcotest.test_case "zero-valued cells" `Quick test_zero_cycle_cells;
          Alcotest.test_case "missing kernels" `Quick test_missing_cells;
          Alcotest.test_case "verdict flips" `Quick test_verdict_flip;
          Alcotest.test_case "informational cells never gate" `Quick
            test_info_not_gated;
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "load, select, next_seq" `Quick
            test_trajectory_dir;
          Alcotest.test_case "bad file poisons the load" `Quick
            test_trajectory_rejects_bad_file;
          Alcotest.test_case "empty dir is an error" `Quick
            test_empty_dir_is_error;
        ] );
      ( "slowdown",
        [
          Alcotest.test_case "cc-capacity 1 is caught" `Quick
            test_cc_capacity_slowdown_detected;
          Alcotest.test_case "interp-only is caught" `Quick
            test_interp_only_slowdown_detected;
        ] );
      ( "inject",
        [
          Alcotest.test_case "per-kind accounting" `Quick
            test_inject_per_kind_accounting;
          Alcotest.test_case "per-kind counters through the oracle" `Quick
            test_inject_per_kind_through_oracle;
        ] );
      ( "docs",
        [
          Alcotest.test_case "gate-rule table matches the newest manifest"
            `Quick test_gate_rules_table;
          Alcotest.test_case "cause table matches Attrib.all_causes" `Quick
            test_cause_table;
        ] );
    ]
