(* Tests for Gb_verify: unit checks of the post-scheduling translation
   verifier on hand-built VLIW traces (one per violation kind), the static
   gadget scanner on the real attack binaries, and the end-to-end
   cross-validation properties — the verifier is silent on every schedule
   the constraining modes produce, and under Unsafe it covers every pc the
   runtime leakage audit catches leaving dependent transient state (zero
   static false negatives), including on randomly generated kernels. *)

module V = Gb_vliw.Vinsn
module Verifier = Gb_verify.Verifier
module Scanner = Gb_verify.Scanner

(* --- hand-built traces -------------------------------------------------- *)

let stub ?(commits = []) ~exit_id ~target () =
  V.make_stub ~exit_id ~commits ~target_pc:target ()

let mk ~stubs bundles =
  {
    V.entry_pc = 0x1000;
    bundles;
    stubs;
    n_regs = 64;
    guest_insns = 8;
    meta = V.empty_meta;
    decoded = V.Undecoded;
  }

let load ?spec ?(hoisted = false) ~id ~pc ~dst ~base () =
  V.Load
    {
      w = Gb_riscv.Insn.D;
      unsigned = false;
      dst;
      base;
      off = 0;
      spec;
      id;
      pc;
      hoisted;
    }

let branch s = V.Branch { cond = Gb_riscv.Insn.BNE; a = V.R 5; b = V.R 0; stub = s }

let store ~id ~pc =
  V.Store { w = Gb_riscv.Insn.D; src = V.R 6; base = V.R 7; off = 0; id; pc }

let kinds r =
  List.map (fun v -> v.Verifier.v_kind) r.Verifier.violations

let clean_schedule_is_ok () =
  (* program-order schedule: nothing speculative, nothing to flag *)
  let stubs = [| stub ~exit_id:2 ~target:0x2000 () |] in
  let tr =
    mk ~stubs
      [|
        [| load ~id:1 ~pc:0x10 ~dst:5 ~base:(V.R 1) () |];
        [| branch 0 |];
        [| load ~id:3 ~pc:0x14 ~dst:6 ~base:(V.R 5) () |];
      |]
  in
  let r = Verifier.verify tr in
  Alcotest.(check bool) "ok" true (Verifier.ok r);
  Alcotest.(check int) "mem ops" 2 r.Verifier.mem_ops;
  Alcotest.(check int) "no sched-spec loads" 0 r.Verifier.sched_spec_loads

let tainted_load_flagged () =
  (* a hoisted load seeds taint; a second load consumes the tainted value
     as its address while a guarding exit is still unresolved — the
     Spectre leak condition in the emitted code *)
  let stubs = [| stub ~exit_id:3 ~target:0x2000 () |] in
  let tr =
    mk ~stubs
      [|
        [| load ~hoisted:true ~id:2 ~pc:0x10 ~dst:40 ~base:(V.R 1) () |];
        [| load ~id:4 ~pc:0x14 ~dst:41 ~base:(V.R 40) (); branch 0 |];
      |]
  in
  let r = Verifier.verify tr in
  Alcotest.(check bool) "violation found" false (Verifier.ok r);
  Alcotest.(check (list int)) "pc attributed" [ 0x14 ] (Verifier.violation_pcs r);
  match r.Verifier.violations with
  | [ v ] ->
    Alcotest.(check string) "kind" "tainted-load-address"
      (Verifier.kind_name v.Verifier.v_kind);
    Alcotest.(check (list int)) "origin is the hoisted load" [ 0x10 ]
      v.Verifier.v_origins
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let resolved_guard_is_clean () =
  (* same dataflow, but the guard resolves a bundle before the dependent
     load executes: sticky taint remains (mirroring the pipeline) yet no
     unresolved exit guards the load, so it cannot be transient *)
  let stubs = [| stub ~exit_id:3 ~target:0x2000 () |] in
  let tr =
    mk ~stubs
      [|
        [| load ~hoisted:true ~id:2 ~pc:0x10 ~dst:40 ~base:(V.R 1) (); branch 0 |];
        [| load ~id:4 ~pc:0x14 ~dst:41 ~base:(V.R 40) () |];
      |]
  in
  Alcotest.(check bool) "ok" true (Verifier.ok (Verifier.verify tr))

let transient_store_flagged () =
  (* a store scheduled above an unresolved exit would execute transiently;
     stores are irreversible, the scheduler must pin them *)
  let stubs = [| stub ~exit_id:3 ~target:0x2000 () |] in
  let tr = mk ~stubs [| [| store ~id:5 ~pc:0x20; branch 0 |] |] in
  let r = Verifier.verify tr in
  Alcotest.(check (list string)) "kind" [ "transient-store" ]
    (List.map Verifier.kind_name (kinds r))

let tainted_commit_flagged () =
  (* stub 0 commits a register whose guarding exit (stub 1, next bundle)
     has not resolved at the stub's own bundle: speculative data would
     become architectural on that exit path *)
  let stubs =
    [|
      stub ~commits:[ (5, V.R 40) ] ~exit_id:1 ~target:0x2000 ();
      stub ~exit_id:2 ~target:0x2004 ();
    |]
  in
  let tr =
    mk ~stubs
      [|
        [| load ~hoisted:true ~id:3 ~pc:0x10 ~dst:40 ~base:(V.R 1) (); branch 0 |];
        [| branch 1 |];
      |]
  in
  let r = Verifier.verify tr in
  Alcotest.(check (list string)) "kind" [ "tainted-commit" ]
    (List.map Verifier.kind_name (kinds r))

let unguarded_bypass_flagged () =
  (* a load hoisted above a potentially-aliasing store without an MCB tag:
     nothing ever validates the speculatively read value *)
  let tr =
    mk ~stubs:[||]
      [|
        [| load ~id:5 ~pc:0x10 ~dst:40 ~base:(V.R 1) () |];
        [| store ~id:3 ~pc:0x20 |];
      |]
  in
  let r = Verifier.verify tr in
  Alcotest.(check (list string)) "kind" [ "unguarded-bypass" ]
    (List.map Verifier.kind_name (kinds r));
  Alcotest.(check int) "schedule-derived speculation" 1
    r.Verifier.sched_spec_loads

let chk_validates_bypass () =
  (* the same bypass with an MCB tag and a Chk resolving after the store
     is the legal memory-speculation idiom — no violation *)
  let stubs = [| stub ~exit_id:5 ~target:0x2000 () |] in
  let tr =
    mk ~stubs
      [|
        [| load ~spec:0 ~id:5 ~pc:0x10 ~dst:40 ~base:(V.R 1) () |];
        [| store ~id:3 ~pc:0x20 |];
        [| V.Chk { tag = 0; stub = 0 } |];
      |]
  in
  let r = Verifier.verify tr in
  Alcotest.(check bool) "ok" true (Verifier.ok r);
  Alcotest.(check int) "flag-derived speculation" 1 r.Verifier.flag_spec_loads

(* --- gadget scanner on the real attack binaries ------------------------- *)

let v1_asm () =
  Gb_kernelc.Compile.assemble (Gb_attack.Spectre_v1.program ~secret:"ABC" ())

let v4_asm () =
  Gb_kernelc.Compile.assemble (Gb_attack.Spectre_v4.program ~secret:"ABC" ())

let scanner_finds_v1 () =
  let r = Scanner.scan (v1_asm ()) in
  Alcotest.(check bool) "gadgets found" true (r.Scanner.gadgets <> []);
  Alcotest.(check bool) "a v1 chain present" true
    (List.exists (fun g -> g.Scanner.g_kind = Scanner.V1) r.Scanner.gadgets)

let scanner_finds_v4 () =
  let r = Scanner.scan (v4_asm ()) in
  Alcotest.(check bool) "a v4 chain present" true
    (List.exists (fun g -> g.Scanner.g_kind = Scanner.V4) r.Scanner.gadgets)

let scanner_score_math () =
  let r = Scanner.scan (v1_asm ()) in
  let dep = Scanner.dep_pcs r in
  Alcotest.(check bool) "scanner found dependent pcs" true (dep <> []);
  let s = Scanner.score r ~flagged:dep in
  Alcotest.(check (float 0.0)) "perfect recall vs own positives" 1.0
    s.Scanner.recall;
  Alcotest.(check (float 0.0)) "perfect precision vs own positives" 1.0
    s.Scanner.precision;
  (* a ground-truth pc the scanner cannot know about must count as a miss *)
  let s = Scanner.score r ~flagged:(4 :: dep) in
  Alcotest.(check (list int)) "missed" [ 4 ] s.Scanner.missed;
  Alcotest.(check bool) "recall dropped" true (s.Scanner.recall < 1.0)

(* --- mitigation report: flagged pcs are distinct and sorted ------------- *)

let flagged_pcs_sorted_unique () =
  (* rebuild the v1 attack's hot traces at IR level (as the engine did)
     and mitigate them; the report's flagged pcs must be canonical even
     when fixpoint rounds re-flag the same load *)
  let asm = v1_asm () in
  let proc =
    Gb_system.Processor.create
      ~config:(Gb_system.Processor.config_for Gb_core.Mitigation.Unsafe)
      asm
  in
  ignore (Gb_system.Processor.run proc);
  let engine = Gb_system.Processor.engine proc in
  let some_flagged = ref false in
  List.iter
    (fun r ->
      if r.Gb_dbt.Engine.r_tier = `Trace then begin
        let gtrace =
          Gb_dbt.Trace_builder.build Gb_dbt.Trace_builder.default_config
            ~mem:(Gb_system.Processor.mem proc)
            ~profile:(Gb_dbt.Engine.branch_profile engine)
            ~entry:r.Gb_dbt.Engine.r_entry
        in
        let g =
          Gb_ir.Build.build ~opt:Gb_ir.Opt_config.aggressive
            ~lat:Gb_ir.Latency.default gtrace
        in
        let report =
          Gb_core.Mitigation.apply Gb_core.Mitigation.Fine_grained
            ~lat:Gb_ir.Latency.default g
        in
        let pcs = report.Gb_core.Mitigation.flagged_pcs in
        Alcotest.(check (list int)) "sorted and distinct"
          (List.sort_uniq compare pcs) pcs;
        if pcs <> [] then some_flagged := true
      end)
    (Gb_dbt.Engine.regions engine);
  Alcotest.(check bool) "the attack flags at least one load" true !some_flagged

(* --- end-to-end: verifier vs engine vs audit ---------------------------- *)

let config_with ~verify mode =
  let config = Gb_system.Processor.config_for mode in
  {
    config with
    Gb_system.Processor.engine =
      { config.Gb_system.Processor.engine with Gb_dbt.Engine.verify };
  }

(* Run a program with the verifier attached; return the processor (for the
   audit and the verify log) and the result. *)
let verified_run ?(audit = false) ~verify mode asm =
  let proc =
    Gb_system.Processor.create ~config:(config_with ~verify mode) ~audit asm
  in
  let r = Gb_system.Processor.run proc in
  (proc, r)

let mitigated_modes_verify_clean () =
  List.iter
    (fun asm ->
      List.iter
        (fun mode ->
          let _, r =
            verified_run ~verify:Gb_dbt.Engine.Verify_report mode asm
          in
          Alcotest.(check bool) "translations were checked" true
            (r.Gb_system.Processor.verify_checked > 0);
          Alcotest.(check int)
            (Printf.sprintf "no violations under %s"
               (Gb_core.Mitigation.mode_name mode))
            0 r.Gb_system.Processor.verify_violations)
        [ Gb_core.Mitigation.Fine_grained; Gb_core.Mitigation.Fence_on_detect;
          Gb_core.Mitigation.Min_cut ])
    [ v1_asm (); v4_asm () ]

let unsafe_static_fn_is_zero () =
  (* the heart of the cross-validation: every pc the audit catches leaving
     a dependent transient line must also be flagged by the verifier *)
  List.iter
    (fun asm ->
      let proc, r =
        verified_run ~audit:true ~verify:Gb_dbt.Engine.Verify_report
          Gb_core.Mitigation.Unsafe asm
      in
      Alcotest.(check bool) "unsafe run has violations" true
        (r.Gb_system.Processor.verify_violations > 0);
      let engine = Gb_system.Processor.engine proc in
      let vpcs =
        List.sort_uniq compare
          (List.map
             (fun (_, v) -> v.Gb_verify.Verifier.v_pc)
             (Gb_dbt.Engine.verify_log engine))
      in
      let dep =
        match Gb_system.Processor.audit proc with
        | Some a -> Gb_cache.Audit.dependent_pcs a
        | None -> []
      in
      Alcotest.(check bool) "audit observed dependent leakage" true (dep <> []);
      List.iter
        (fun pc ->
          Alcotest.(check bool)
            (Printf.sprintf "leaking pc 0x%x covered by the verifier" pc)
            true (List.mem pc vpcs))
        dep)
    [ v1_asm (); v4_asm () ]

let enforce_gate_stops_the_leak () =
  (* Verify_enforce under Unsafe: violating translations are refenced, so
     the audit must see no dependent transient state at all *)
  let proc, r =
    verified_run ~audit:true ~verify:Gb_dbt.Engine.Verify_enforce
      Gb_core.Mitigation.Unsafe (v1_asm ())
  in
  Alcotest.(check bool) "translations rejected" true
    (r.Gb_system.Processor.verify_rejections > 0);
  (match Gb_system.Processor.audit proc with
  | Some a ->
    Alcotest.(check (list int)) "no dependent transient lines" []
      (Gb_cache.Audit.dependent_pcs a)
  | None -> Alcotest.fail "audit missing");
  (* and the final schedules installed are themselves clean: re-verify
     every installed region *)
  List.iter
    (fun reg ->
      Alcotest.(check bool) "installed region verifies clean" true
        (Verifier.ok (Verifier.verify reg.Gb_dbt.Engine.r_trace)))
    (Gb_dbt.Engine.regions (Gb_system.Processor.engine proc))

let scanner_covers_runtime_flags () =
  (* scanner recall 1.0 against the runtime detector's flagged pcs *)
  List.iter
    (fun asm ->
      let proc, _ =
        verified_run ~audit:true ~verify:Gb_dbt.Engine.Verify_off
          Gb_core.Mitigation.Unsafe asm
      in
      let flagged =
        match Gb_system.Processor.audit proc with
        | Some a -> Gb_cache.Audit.flagged_pc_list a
        | None -> []
      in
      Alcotest.(check bool) "runtime flagged something" true (flagged <> []);
      let s = Scanner.score (Scanner.scan asm) ~flagged in
      Alcotest.(check (float 0.0)) "scanner recall" 1.0 s.Scanner.recall)
    [ v1_asm (); v4_asm () ]

(* --- qcheck: random kernels --------------------------------------------- *)

(* Small random kernels in the v1 shape — a biased bounds check guarding a
   double indirection, sometimes with a store in the hot path — exercising
   the trace builder, speculation and the mitigation from fresh angles. *)
let kernel_gen =
  let open QCheck.Gen in
  let open Gb_kernelc.Ast in
  let* iters = int_range 40 90 in
  let* mask = oneofl [ 7; 15 ] in
  let* bound = int_range 3 6 in
  let* stride = oneofl [ 1; 4; 8 ] in
  let* with_store = bool in
  let c n = Const (Int64.of_int n) in
  let arrays =
    [
      {
        a_name = "idx";
        a_ty = I8;
        a_dims = [ 64 ];
        a_init = Bytes (String.init 64 (fun i -> Char.chr (i * 7 land 63)));
      };
      { a_name = "probe"; a_ty = I64; a_dims = [ 512 ]; a_init = Zero };
    ]
  in
  let leak =
    [
      Let ("x", Arr ("idx", [ Var "j" ]));
      Let
        ( "y",
          Arr ("probe", [ Bin (And, Bin (Mul, Var "x", c stride), c 511) ]) );
      Set ("acc", Bin (Add, Var "acc", Var "y"));
    ]
    @
    if with_store then
      [ Arr_store ("probe", [ Bin (And, Var "x", c 511) ], Var "acc") ]
    else []
  in
  let body =
    [
      Let ("acc", c 0);
      For
        ( "i",
          c 0,
          c iters,
          [
            Let ("j", Bin (And, Var "i", c mask));
            If
              ( Bin (Lt, Var "j", c bound),
                leak,
                [ Set ("acc", Bin (Add, Var "acc", c 1)) ] );
          ] );
    ]
  in
  return { arrays; body; result = Bin (And, Var "acc", c 255) }

let qcheck_random_kernels =
  QCheck.Test.make ~count:6 ~name:"random kernels: verifier silent when \
                                   constrained, covers the audit when not"
    (QCheck.make kernel_gen) (fun program ->
      let asm = Gb_kernelc.Compile.assemble program in
      List.iter
        (fun mode ->
          let _, r =
            verified_run ~verify:Gb_dbt.Engine.Verify_report mode asm
          in
          if r.Gb_system.Processor.verify_violations <> 0 then
            QCheck.Test.fail_reportf "%d violation(s) under %s"
              r.Gb_system.Processor.verify_violations
              (Gb_core.Mitigation.mode_name mode))
        [ Gb_core.Mitigation.Fine_grained; Gb_core.Mitigation.Fence_on_detect;
          Gb_core.Mitigation.Min_cut ];
      let proc, _ =
        verified_run ~audit:true ~verify:Gb_dbt.Engine.Verify_report
          Gb_core.Mitigation.Unsafe asm
      in
      let vpcs =
        List.sort_uniq compare
          (List.map
             (fun (_, v) -> v.Gb_verify.Verifier.v_pc)
             (Gb_dbt.Engine.verify_log (Gb_system.Processor.engine proc)))
      in
      let dep =
        match Gb_system.Processor.audit proc with
        | Some a -> Gb_cache.Audit.dependent_pcs a
        | None -> []
      in
      List.iter
        (fun pc ->
          if not (List.mem pc vpcs) then
            QCheck.Test.fail_reportf
              "static false negative: audit-dependent pc 0x%x unflagged" pc)
        dep;
      true)

let () =
  Alcotest.run "verify"
    [
      ( "verifier-units",
        [
          Alcotest.test_case "clean schedule is ok" `Quick clean_schedule_is_ok;
          Alcotest.test_case "tainted load flagged" `Quick tainted_load_flagged;
          Alcotest.test_case "resolved guard is clean" `Quick
            resolved_guard_is_clean;
          Alcotest.test_case "transient store flagged" `Quick
            transient_store_flagged;
          Alcotest.test_case "tainted commit flagged" `Quick
            tainted_commit_flagged;
          Alcotest.test_case "unguarded bypass flagged" `Quick
            unguarded_bypass_flagged;
          Alcotest.test_case "chk validates bypass" `Quick chk_validates_bypass;
        ] );
      ( "scanner",
        [
          Alcotest.test_case "finds the v1 gadget" `Quick scanner_finds_v1;
          Alcotest.test_case "finds the v4 gadget" `Quick scanner_finds_v4;
          Alcotest.test_case "score arithmetic" `Quick scanner_score_math;
        ] );
      ( "mitigation-report",
        [
          Alcotest.test_case "flagged pcs sorted and distinct" `Quick
            flagged_pcs_sorted_unique;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "mitigated modes verify clean" `Quick
            mitigated_modes_verify_clean;
          Alcotest.test_case "unsafe static FN is zero" `Quick
            unsafe_static_fn_is_zero;
          Alcotest.test_case "enforce gate stops the leak" `Quick
            enforce_gate_stops_the_leak;
          Alcotest.test_case "scanner covers runtime flags" `Quick
            scanner_covers_runtime_flags;
          QCheck_alcotest.to_alcotest qcheck_random_kernels;
        ] );
    ]
