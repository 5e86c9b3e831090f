(* Tests for the speculative-leakage audit: shadow-cache diffing and the
   commit-boundary rule at unit level, then the end-to-end property the
   paper claims — Unsafe leaves attributable transient cache state on both
   Spectre kernels while Fine_grained shows zero false negatives. *)

let cache_cfg =
  { Gb_cache.Cache.size_bytes = 4096; ways = 2; line_bytes = 64 }

let make () =
  let real = Gb_cache.Cache.create cache_cfg in
  (real, Gb_cache.Audit.create ~real ())

let touch real addr =
  ignore (Gb_cache.Cache.access real ~addr ~write:false)

(* A transient load (id past the exit boundary) whose line is in the real
   cache but not the shadow must produce exactly one attributed record. *)
let transient_line_detected () =
  let real, a = make () in
  Gb_cache.Audit.begin_run a ~region:0x1000;
  touch real 0x2000;
  Gb_cache.Audit.run_access a ~id:7 ~pc:0x44 ~addr:0x2000 ~size:8 ~write:false
    ~speculative:true ~dependent:true;
  Gb_cache.Audit.end_run a ~exit_id:3;
  let s = Gb_cache.Audit.summary a in
  Alcotest.(check int) "one transient line" 1 s.Gb_cache.Audit.transient_lines;
  Alcotest.(check int) "dependent" 1 s.Gb_cache.Audit.dependent_lines;
  Alcotest.(check int) "one leaking pc" 1 s.Gb_cache.Audit.transient_pcs

(* The same access with an id before the exit boundary is architectural:
   it replays into the shadow and no divergence is recorded. *)
let committed_access_is_silent () =
  let real, a = make () in
  Gb_cache.Audit.begin_run a ~region:0x1000;
  touch real 0x2000;
  Gb_cache.Audit.run_access a ~id:2 ~pc:0x44 ~addr:0x2000 ~size:8 ~write:false
    ~speculative:false ~dependent:false;
  Gb_cache.Audit.end_run a ~exit_id:3;
  let s = Gb_cache.Audit.summary a in
  Alcotest.(check int) "no transient line" 0 s.Gb_cache.Audit.transient_lines;
  Alcotest.(check int) "shadow converged" 0 s.Gb_cache.Audit.shadow_divergence

(* A line the architectural path already loaded is not divergent even when
   a transient load touches it too. *)
let committed_line_not_divergent () =
  let real, a = make () in
  Gb_cache.Audit.commit_access a ~addr:0x2000 ~size:8 ~write:false;
  touch real 0x2000;
  Gb_cache.Audit.begin_run a ~region:0x1000;
  Gb_cache.Audit.run_access a ~id:9 ~pc:0x44 ~addr:0x2000 ~size:8 ~write:false
    ~speculative:true ~dependent:true;
  Gb_cache.Audit.end_run a ~exit_id:3;
  let s = Gb_cache.Audit.summary a in
  Alcotest.(check int) "no divergence" 0 s.Gb_cache.Audit.transient_lines

(* Committed flushes replay into the shadow in program order: a flush
   before the boundary, then a transient reload, is a divergence again. *)
let committed_flush_replays () =
  let real, a = make () in
  Gb_cache.Audit.commit_access a ~addr:0x2000 ~size:8 ~write:false;
  touch real 0x2000;
  Gb_cache.Audit.begin_run a ~region:0x1000;
  Gb_cache.Audit.run_flush a ~id:1 ~pc:0x40 ~addr:0x2000;
  Gb_cache.Cache.flush_line real 0x2000;
  touch real 0x2000;
  Gb_cache.Audit.run_access a ~id:8 ~pc:0x48 ~addr:0x2000 ~size:8 ~write:false
    ~speculative:true ~dependent:false;
  Gb_cache.Audit.end_run a ~exit_id:4;
  let s = Gb_cache.Audit.summary a in
  Alcotest.(check int) "flush + transient reload diverges" 1
    s.Gb_cache.Audit.transient_lines;
  Alcotest.(check int) "but not dependent" 0 s.Gb_cache.Audit.dependent_lines

(* Classification: flagged + dependent evidence = TP; unflagged +
   dependent evidence = FN; flagged without evidence = over-mitigation. *)
let classification_counters () =
  let real, a = make () in
  Gb_cache.Audit.note_spec_load a ~pc:0x10;
  Gb_cache.Audit.note_spec_load a ~pc:0x20;
  Gb_cache.Audit.note_spec_load a ~pc:0x30;
  Gb_cache.Audit.note_flagged a ~pc:0x10;
  Gb_cache.Audit.note_flagged a ~pc:0x30;
  Gb_cache.Audit.begin_run a ~region:0;
  touch real 0x1000;
  touch real 0x2000;
  Gb_cache.Audit.run_access a ~id:10 ~pc:0x10 ~addr:0x1000 ~size:8
    ~write:false ~speculative:true ~dependent:true;
  Gb_cache.Audit.run_access a ~id:11 ~pc:0x20 ~addr:0x2000 ~size:8
    ~write:false ~speculative:true ~dependent:true;
  Gb_cache.Audit.end_run a ~exit_id:5;
  let s = Gb_cache.Audit.summary a in
  Alcotest.(check int) "tp" 1 s.Gb_cache.Audit.true_positives;
  Alcotest.(check int) "fn" 1 s.Gb_cache.Audit.false_negatives;
  Alcotest.(check int) "over" 1 s.Gb_cache.Audit.over_mitigations;
  Alcotest.(check (float 1e-9)) "precision" 0.5 s.Gb_cache.Audit.precision;
  Alcotest.(check (float 1e-9)) "recall" 0.5 s.Gb_cache.Audit.recall;
  Alcotest.(check (float 1e-9)) "over-fencing" 0.5
    s.Gb_cache.Audit.over_fencing_rate

(* One record per (pc, line) per run, however many times the loop body
   re-touches it inside the run. *)
let per_run_dedup () =
  let real, a = make () in
  Gb_cache.Audit.begin_run a ~region:0;
  touch real 0x3000;
  for i = 0 to 4 do
    Gb_cache.Audit.run_access a ~id:(20 + i) ~pc:0x44 ~addr:0x3000 ~size:8
      ~write:false ~speculative:true ~dependent:true
  done;
  Gb_cache.Audit.end_run a ~exit_id:3;
  let s = Gb_cache.Audit.summary a in
  Alcotest.(check int) "deduped within the run" 1
    s.Gb_cache.Audit.transient_lines

let summary_json_roundtrip () =
  let real, a = make () in
  Gb_cache.Audit.note_flagged a ~pc:0x10;
  Gb_cache.Audit.begin_run a ~region:0;
  touch real 0x1000;
  Gb_cache.Audit.run_access a ~id:10 ~pc:0x10 ~addr:0x1000 ~size:8
    ~write:false ~speculative:true ~dependent:true;
  Gb_cache.Audit.end_run a ~exit_id:5;
  let json =
    Gb_util.Json.to_string
      (Gb_cache.Audit.summary_to_json (Gb_cache.Audit.summary a))
  in
  match Gb_util.Json.of_string json with
  | Error e -> Alcotest.failf "summary json does not parse: %s" e
  | Ok (Gb_util.Json.Obj fields) ->
    Alcotest.(check bool) "has precision" true (List.mem_assoc "precision" fields);
    Alcotest.(check bool) "has false_negatives" true
      (List.mem_assoc "false_negatives" fields)
  | Ok _ -> Alcotest.fail "summary json is not an object"

(* --- end-to-end properties on the real attack kernels --- *)

let secret = "GB!"

let audited mode program =
  let o = Gb_attack.Runner.run ~audit:true ~mode ~secret program in
  match o.Gb_attack.Runner.result.Gb_system.Processor.audit with
  | Some s -> (o, s)
  | None -> Alcotest.fail "audit summary missing from audited run"

let kernels () =
  [
    ("v1", Gb_attack.Spectre_v1.program ~secret ());
    ("v4", Gb_attack.Spectre_v4.program ~secret ());
  ]

let unsafe_leaves_transient_state () =
  List.iter
    (fun (name, program) ->
      let _, s = audited Gb_core.Mitigation.Unsafe program in
      Alcotest.(check bool) (name ^ ": transient lines under Unsafe") true
        (s.Gb_cache.Audit.transient_lines > 0);
      Alcotest.(check bool) (name ^ ": dependent transient lines") true
        (s.Gb_cache.Audit.dependent_lines > 0);
      Alcotest.(check bool) (name ^ ": detector sees the leak (tp > 0)") true
        (s.Gb_cache.Audit.true_positives > 0);
      Alcotest.(check int) (name ^ ": no detector miss") 0
        s.Gb_cache.Audit.false_negatives)
    (kernels ())

let fine_grained_zero_false_negatives () =
  List.iter
    (fun (name, program) ->
      let o, s = audited Gb_core.Mitigation.Fine_grained program in
      Alcotest.(check int) (name ^ ": zero false negatives") 0
        s.Gb_cache.Audit.false_negatives;
      Alcotest.(check bool) (name ^ ": detector flagged something") true
        (s.Gb_cache.Audit.flagged > 0);
      Alcotest.(check int) (name ^ ": and the attack recovered nothing") 0
        o.Gb_attack.Runner.correct_bytes)
    (kernels ())

let audit_does_not_change_execution () =
  (* attaching the audit must be a pure observer: same cycles, same
     recovered bytes *)
  let program = Gb_attack.Spectre_v1.program ~secret () in
  let plain = Gb_attack.Runner.run ~mode:Gb_core.Mitigation.Unsafe ~secret program in
  let watched =
    Gb_attack.Runner.run ~audit:true ~mode:Gb_core.Mitigation.Unsafe ~secret
      program
  in
  Alcotest.(check string) "same recovery" plain.Gb_attack.Runner.recovered
    watched.Gb_attack.Runner.recovered;
  Alcotest.(check int64) "same cycle count"
    plain.Gb_attack.Runner.result.Gb_system.Processor.cycles
    watched.Gb_attack.Runner.result.Gb_system.Processor.cycles

let audit_counters_reproducible () =
  let program = Gb_attack.Spectre_v1.program ~secret () in
  let run () =
    let _, s = audited Gb_core.Mitigation.Unsafe program in
    ( s.Gb_cache.Audit.transient_lines,
      s.Gb_cache.Audit.dependent_lines,
      s.Gb_cache.Audit.true_positives )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-for-bit reproducible" true (a = b)

let qcheck_commit_boundary =
  (* property: for a random split point, every buffered access is counted
     exactly once — either replayed (committed) or diffed (transient) —
     so transient records never exceed the accesses past the boundary *)
  QCheck.Test.make ~name:"commit boundary partitions the run" ~count:50
    QCheck.(pair (int_range 1 20) (int_range 0 20))
    (fun (n_ops, boundary) ->
      let real, a = make () in
      Gb_cache.Audit.begin_run a ~region:0;
      for i = 0 to n_ops - 1 do
        let addr = 0x4000 + (i * 64) in
        touch real addr;
        Gb_cache.Audit.run_access a ~id:i ~pc:i ~addr ~size:8 ~write:false
          ~speculative:true ~dependent:false
      done;
      Gb_cache.Audit.end_run a ~exit_id:boundary;
      let s = Gb_cache.Audit.summary a in
      let expected_transient = max 0 (n_ops - boundary) in
      s.Gb_cache.Audit.transient_lines = expected_transient)

let () =
  Alcotest.run "audit"
    [
      ( "shadow-diff",
        [
          Alcotest.test_case "transient line detected" `Quick
            transient_line_detected;
          Alcotest.test_case "committed access is silent" `Quick
            committed_access_is_silent;
          Alcotest.test_case "committed line not divergent" `Quick
            committed_line_not_divergent;
          Alcotest.test_case "committed flush replays" `Quick
            committed_flush_replays;
          Alcotest.test_case "per-run dedup" `Quick per_run_dedup;
          QCheck_alcotest.to_alcotest qcheck_commit_boundary;
        ] );
      ( "classification",
        [
          Alcotest.test_case "tp/fn/over counters" `Quick
            classification_counters;
          Alcotest.test_case "summary json round-trips" `Quick
            summary_json_roundtrip;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "Unsafe leaves transient state (v1+v4)" `Quick
            unsafe_leaves_transient_state;
          Alcotest.test_case "Fine_grained: zero false negatives" `Quick
            fine_grained_zero_false_negatives;
          Alcotest.test_case "audit is a pure observer" `Quick
            audit_does_not_change_execution;
          Alcotest.test_case "audit counters reproducible" `Quick
            audit_counters_reproducible;
        ] );
    ]
