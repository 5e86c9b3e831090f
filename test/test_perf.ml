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
  check "translations_per_1k.e8.gemm" (B.Lower_better B.default_tol_cycles);
  check "audit_fn.e1.spectre-v1.fine-grained" (B.Lower_better 0.);
  check "alloc.minor_words_per_kinsn.interp" (B.Lower_better B.default_tol_alloc);
  check "alloc.minor_words_per_kinsn.pipeline.min-cut"
    (B.Lower_better B.default_tol_alloc);
  check "cause_cycles.e2.min-cut.cut-protect" (B.Band B.default_tol_cycles);
  check "counter.trace.run" B.Info;
  check "faults.e10.injected" B.Info;
  check "table.e1.spectre-v1.unsafe.rollbacks" B.Info;
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

(* a band is two-sided and relative: cycles moving to another cause
   gate whichever way they move, and a cause appearing or vanishing
   gates at any size *)
let test_band () =
  let cell = "cause_cycles.e2.unsafe.fence-stall" in
  let judge base cur =
    B.compare ~baseline:(mk [ (cell, base) ]) (mk [ (cell, cur) ])
  in
  check_status "+0.5%" B.Unchanged (judge 1000. 1005.) cell;
  check_status "-0.5%" B.Unchanged (judge 1000. 995.) cell;
  check_status "+1.5%" B.Regressed (judge 1000. 1015.) cell;
  check_status "-1.5%" B.Regressed (judge 1000. 985.) cell;
  check_status "0 -> 0" B.Unchanged (judge 0. 0.) cell;
  check_status "0 -> x" B.Regressed (judge 0. 0.5) cell;
  check_status "x -> 0" B.Regressed (judge 1000. 0.) cell;
  Alcotest.(check bool) "a band regression fails" false
    (judge 1000. 985.).B.passed

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

(* A manifest recorded from an uncommitted tree is stamped with its
   parent's hash plus "-dirty", and no --baseline-rev selects it. *)
let test_dirty_rev () =
  Alcotest.(check string) "clean" "abc1234"
    (M.rev_of ~head:(Some "abc1234") ~dirty:false);
  Alcotest.(check string) "dirty" "abc1234-dirty"
    (M.rev_of ~head:(Some "abc1234") ~dirty:true);
  Alcotest.(check string) "outside a checkout" "unknown"
    (M.rev_of ~head:None ~dirty:false);
  Alcotest.(check string) "outside a checkout, dirty" "unknown"
    (M.rev_of ~head:None ~dirty:true);
  Alcotest.(check bool) "suffix read back" true (M.is_dirty "abc1234-dirty");
  Alcotest.(check bool) "clean read back" false (M.is_dirty "abc1234");
  let ms =
    [ mk ~seq:1 ~rev:"aaaa111" [ ("cycles.x", 100.) ];
      mk ~seq:2 ~rev:"bbbb222-dirty" [ ("cycles.x", 90.) ] ]
  in
  (match B.select ~rev:"aaaa" ms with
  | Some m -> Alcotest.(check int) "clean rev pins" 1 m.M.seq
  | None -> Alcotest.fail "clean rev pin found nothing");
  Alcotest.(check bool) "dirty manifest never pinned" true
    (B.select ~rev:"bbbb" ms = None);
  Alcotest.(check bool) "dirty rev pins nothing" true
    (B.select ~rev:"aaaa111-dirty" ms = None);
  match B.select ms with
  | Some m -> Alcotest.(check int) "latest still wins unpinned" 2 m.M.seq
  | None -> Alcotest.fail "select found nothing"

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

let config_with ?cc_capacity ?hot_threshold () =
  let c = Gb_system.Processor.config_for Gb_core.Mitigation.Fine_grained in
  let engine = c.Gb_system.Processor.engine in
  let cache =
    match cc_capacity with
    | Some capacity ->
      { engine.Gb_dbt.Engine.cache with Gb_dbt.Code_cache.capacity }
    | None -> engine.Gb_dbt.Engine.cache
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
    ( Printf.sprintf "translations_per_1k.t.%s" kernel,
      Gb_experiments.Experiments.per_1k r.Gb_system.Processor.translations
        r.Gb_system.Processor.guest_insns );
  ]

let test_cc_capacity_slowdown_detected () =
  (* a one-bundle code cache thrashes: every trace is evicted by the next
     install and translated again on its next arrival. Simulated cycles
     barely move (translation is charged to the host) and neither do
     dispatcher exits, so the translations-per-1k cell is the one that
     must gate. *)
  let baseline = mk (measure ~config:(config_with ()) "gemm") in
  let crippled =
    mk (measure ~config:(config_with ~cc_capacity:1 ()) "gemm")
  in
  let cmp = B.compare ~baseline crippled in
  Alcotest.(check bool) "crippled cache gates" false cmp.B.passed;
  let regressed = List.map (fun c -> c.B.c_name) (B.regressions cmp) in
  Alcotest.(check bool) "the translation-rate cell regressed" true
    (List.mem "translations_per_1k.t.gemm" regressed)

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

(* Only the oracle proves a fault recovered, at a point where the two
   sides agree. A plain processor run under injection answers right and
   counts its injected faults, but no recovery at all; the oracle run of
   the same program and spec recovers every fault of every kind. *)
let test_recovery_counted_by_oracle_only () =
  let module I = Gb_system.Inject in
  let program =
    match Gb_workloads.Polybench.by_name "gemm" with
    | Some w -> w.Gb_workloads.Polybench.program
    | None -> Alcotest.fail "gemm missing"
  in
  let spec = [ (I.Translate_fail, 0.2); (I.Evict, 0.05) ] in
  let counters obs =
    match Gb_obs.Sink.metrics obs with
    | Some m -> Gb_obs.Metrics.counters m
    | None -> Alcotest.fail "active sink has metrics"
  in
  let obs = Gb_obs.Sink.create () in
  let inject = I.create ~obs spec in
  let r =
    Gb_system.Processor.run
      (Gb_system.Processor.create ~obs ~inject
         (Gb_kernelc.Compile.assemble program))
  in
  Alcotest.(check int) "processor run exits right" 169
    r.Gb_system.Processor.exit_code;
  let plain = counters obs in
  Alcotest.(check bool) "processor run injected faults" true
    (List.assoc "fault.injected" plain > 0);
  List.iter
    (fun (name, _) ->
      if String.starts_with ~prefix:"fault.recovered" name then
        Alcotest.failf "processor run counts %s" name)
    plain;
  let obs = Gb_obs.Sink.create () in
  let rep = Gb_diff.Oracle.run_kernel ~obs ~inject:spec program in
  Alcotest.(check bool) "oracle run clean" true (Gb_diff.Oracle.clean rep);
  let oracle = counters obs in
  let count name = Option.value ~default:0 (List.assoc_opt name oracle) in
  List.iter
    (fun k ->
      let name = I.kind_name k in
      Alcotest.(check bool) (name ^ " injected") true
        (count ("fault.injected." ^ name) > 0);
      Alcotest.(check int) (name ^ ": recovered = injected")
        (count ("fault.injected." ^ name))
        (count ("fault.recovered." ^ name)))
    [ I.Translate_fail; I.Evict ];
  Alcotest.(check int) "recovered = injected"
    (count "fault.injected") (count "fault.recovered")

(* --- docs stay in step with the manifest ----------------------------- *)

(* [dune runtest] runs in _build/default/test, [dune exec] in the root *)
let in_repo path =
  Option.value ~default:path
    (List.find_opt Sys.file_exists [ Filename.concat ".." path; path ])

let observability_md = in_repo "docs/OBSERVABILITY.md"

let experiments_md = in_repo "EXPERIMENTS.md"

let trajectory_dir = in_repo "bench/trajectory"

(* The lines of the first markdown table under [heading] in [doc],
   header and separator included. *)
let table_lines ~doc ~heading =
  let lines =
    In_channel.with_open_text doc In_channel.input_all
    |> String.split_on_char '\n'
  in
  let rec after_heading = function
    | [] -> Alcotest.failf "%s has no heading %S" doc heading
    | l :: rest -> if l = heading then rest else after_heading rest
  in
  let rec table acc = function
    | l :: rest when String.length l > 0 && l.[0] = '|' -> table (l :: acc) rest
    | [] -> List.rev acc
    | _ :: _ when acc <> [] -> List.rev acc
    | _ :: rest -> table acc rest
  in
  table [] (after_heading lines)

(* The cells of each row of the markdown table under [heading] in [doc],
   header and separator rows dropped. *)
let table_rows ~doc ~heading =
  let cells row =
    let n = String.length row in
    let rec go start i acc =
      if i + 3 > n then List.rev (String.sub row start (n - start) :: acc)
      else if String.sub row i 3 = " | " then
        go (i + 3) (i + 3) (String.sub row start (i - start) :: acc)
      else go start (i + 1) acc
    in
    go 1 1 []
  in
  match table_lines ~doc ~heading with
  | _header :: _separator :: rows -> List.map cells rows
  | _ -> Alcotest.failf "no table under %S in %s" heading doc

(* every backticked span of a cell *)
let backticked cell =
  match String.split_on_char '`' cell with
  | [] -> []
  | _ :: parts -> List.filteri (fun i _ -> i mod 2 = 0) parts

(* The first-column names of the markdown table under [heading]: every
   backticked span of the first cell, one list per row. *)
let table_names ~heading =
  List.map
    (fun cells -> backticked (List.hd cells))
    (table_rows ~doc:observability_md ~heading)

let family name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let newest_manifest () =
  match B.load_dir trajectory_dir with
  | Error e -> Alcotest.failf "trajectory: %s" e
  | Ok ms -> Option.get (B.select ms)

(* [perf report] lists a verdict as failed only when it differs from
   what a healthy manifest reads: the e1 leak verdicts of the mitigated
   modes are false in every committed manifest, and so are not failures.
   Flipping any one verdict of BENCH_0009, true or false, e1 or not,
   makes exactly that verdict fail. *)
let test_failed_verdicts () =
  let m =
    match M.read (Filename.concat trajectory_dir "BENCH_0009.json") with
    | Ok m -> m
    | Error e -> Alcotest.failf "BENCH_0009: %s" e
  in
  Alcotest.(check (list string)) "BENCH_0009 fails no verdict" []
    (M.failed_verdicts m);
  Alcotest.(check bool) "BENCH_0009 has false e1 leak verdicts" true
    (List.exists (fun (_, ok) -> not ok) m.M.verdicts);
  List.iter
    (fun name ->
      let flipped =
        { m with
          M.verdicts =
            List.map
              (fun (n, ok) -> (n, if n = name then not ok else ok))
              m.M.verdicts }
      in
      Alcotest.(check (list string))
        (name ^ " flipped is the one failed verdict")
        [ name ]
        (M.failed_verdicts flipped))
    [ "e1.spectre-v1.unsafe.leaked"; "e1.spectre-v4.min-cut.leaked";
      "e10.passed" ]

let test_gate_rules_table () =
  let newest = newest_manifest () in
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

(* EXPERIMENTS.md's E1-E7 tables are a rendering of the newest committed
   manifest: each table under its heading equals, line for line, what
   [Report.experiment_tables] renders from that manifest's cells *)
let test_experiment_tables () =
  let newest = newest_manifest () in
  List.iter
    (fun (heading, rendered) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s is BENCH_%04d's rendering" heading newest.M.seq)
        rendered
        (table_lines ~doc:experiments_md ~heading))
    (Gb_perf.Report.experiment_tables newest)

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

(* The names an examples cell of the "Metric naming" table documents,
   each with its kind as [Metrics.to_json] spells it. A name is a
   counter unless the word "gauge(s)" or "histogram(s)" precedes it in
   the cell; "counter(s)" switches back. *)
let documented_metrics cell =
  let kind_word = function
    | "counter" | "counters" -> Some "counters"
    | "gauge" | "gauges" -> Some "gauges"
    | "histogram" | "histograms" -> Some "histograms"
    | _ -> None
  in
  (* the parts of the cell alternate: text, then a backticked name *)
  let step (kind, i, acc) part =
    if i mod 2 = 1 then (kind, i + 1, (kind, part) :: acc)
    else
      let kind =
        List.fold_left
          (fun k w -> Option.value ~default:k (kind_word w))
          kind
          (String.split_on_char ' ' part)
      in
      (kind, i + 1, acc)
  in
  let _, _, documented =
    List.fold_left step ("counters", 0, []) (String.split_on_char '`' cell)
  in
  documented

(* Every counter, gauge and histogram of a fully observed run appears,
   with its kind, in the row of its prefix. The run carries a sink, an
   audit, [Verify_enforce], injected faults and a 96-bundle code cache
   that evicts and reuses lowerings; it mitigates under min-cut, so the
   min-cut-only counter shows too. A [KIND] placeholder ([injected.KIND])
   stands for any name its row lists. *)
let test_metric_naming_table () =
  let module P = Gb_system.Processor in
  let module E = Gb_dbt.Engine in
  let module J = Gb_util.Json in
  let base = P.config_for Gb_core.Mitigation.Min_cut in
  let engine = base.P.engine in
  let config =
    { base with
      P.engine =
        { engine with
          E.verify = E.Verify_enforce;
          cache = { engine.E.cache with Gb_dbt.Code_cache.capacity = 96 } } }
  in
  let obs = Gb_obs.Sink.create () in
  let inject =
    Gb_system.Inject.create ~obs
      [ (Gb_system.Inject.Translate_fail, 0.2); (Gb_system.Inject.Evict, 0.05) ]
  in
  let program =
    Gb_kernelc.Compile.assemble
      (Gb_attack.Spectre_v1.program ~secret:"SQUASH" ())
  in
  ignore (P.run (P.create ~config ~obs ~audit:true ~inject program));
  let emitted =
    match Option.map Gb_obs.Metrics.to_json (Gb_obs.Sink.metrics obs) with
    | Some (J.Obj sections) ->
      List.concat_map
        (function
          | kind, J.Obj names -> List.map (fun (name, _) -> (kind, name)) names
          | _, _ -> [])
        sections
    | _ -> Alcotest.fail "active sink has no metrics"
  in
  let rows =
    List.map
      (fun cells ->
        match cells with
        | prefix :: _ :: examples :: _ ->
          (backticked prefix, documented_metrics examples)
        | _ -> Alcotest.fail "metric-naming row has fewer than three cells")
      (table_rows ~doc:observability_md ~heading:"## Metric naming")
  in
  List.iter
    (fun (kind, name) ->
      let prefix = family name ^ "." in
      match List.find_opt (fun (p, _) -> List.mem prefix p) rows with
      | None -> Alcotest.failf "%s has no metric-naming row %s" name prefix
      | Some (_, documented) ->
        let suffix =
          String.sub name (String.length prefix)
            (String.length name - String.length prefix)
        in
        let listed = List.map snd documented in
        let matches doc =
          doc = suffix
          ||
          match String.index_opt doc '.' with
          | Some i when String.sub doc i (String.length doc - i) = ".KIND" ->
            List.exists
              (fun k -> suffix = String.sub doc 0 (i + 1) ^ k)
              listed
          | Some _ | None -> false
        in
        if not (List.exists (fun (k, doc) -> k = kind && matches doc) documented)
        then
          Alcotest.failf "%s (%s) is not documented with its kind in row %s"
            name kind prefix)
    emitted;
  Alcotest.(check bool) "the run emits metrics" true (List.length emitted > 40)

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
          Alcotest.test_case "perf report fails only unexpected verdicts"
            `Quick test_failed_verdicts;
        ] );
      ( "compare",
        [
          Alcotest.test_case "rule dispatch" `Quick test_rule_dispatch;
          Alcotest.test_case "identical manifests pass" `Quick
            test_identical_passes;
          Alcotest.test_case "tolerance boundaries" `Quick
            test_tolerance_boundary;
          Alcotest.test_case "zero-valued cells" `Quick test_zero_cycle_cells;
          Alcotest.test_case "two-sided relative band" `Quick test_band;
          Alcotest.test_case "missing kernels" `Quick test_missing_cells;
          Alcotest.test_case "verdict flips" `Quick test_verdict_flip;
          Alcotest.test_case "informational cells never gate" `Quick
            test_info_not_gated;
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "load, select, next_seq" `Quick
            test_trajectory_dir;
          Alcotest.test_case "dirty revs" `Quick test_dirty_rev;
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
          Alcotest.test_case "recovery is counted by the oracle only" `Quick
            test_recovery_counted_by_oracle_only;
        ] );
      ( "docs",
        [
          Alcotest.test_case "gate-rule table matches the newest manifest"
            `Quick test_gate_rules_table;
          Alcotest.test_case "EXPERIMENTS.md tables render the newest manifest"
            `Quick test_experiment_tables;
          Alcotest.test_case "cause table matches Attrib.all_causes" `Quick
            test_cause_table;
          Alcotest.test_case "metric-naming table covers an observed run"
            `Quick test_metric_naming_table;
        ] );
    ]
