(* Tests for Gb_core.Leakcut (BLADE-style min-cut protect placement) and
   the cut-soundness verifier pass Gb_verify.Verifier.check_cut.

   Three layers:
   - analysis units: the plan on the real attack traces (sources,
     repairs, purity of [analyze], fence-free realization);
   - the sensitivity control: a deliberately unsound cut — the first
     repair left unrealized — MUST be rejected by [check_cut]
     (mirroring the diff oracle's mcb-suppress control);
   - end-to-end properties on the attack programs and random kernels:
     under Min_cut nothing leaks (audit FN = 0), the verifier and the
     cut checker are silent, Min_cut inserts strictly fewer fences than
     fence-on-detect, the post-apply graph has no residual Spectre
     pattern, and the differential oracle agrees with the reference
     interpreter. *)

module L = Gb_core.Leakcut
module M = Gb_core.Mitigation
module Verifier = Gb_verify.Verifier

let lat = Gb_ir.Latency.default

let res = Gb_dbt.Sched.default_resources

let v1_asm () =
  Gb_kernelc.Compile.assemble (Gb_attack.Spectre_v1.program ~secret:"ABC" ())

let v4_asm () =
  Gb_kernelc.Compile.assemble (Gb_attack.Spectre_v4.program ~secret:"ABC" ())

(* Run [asm] unsafely to heat the profile, then rebuild every hot
   region's guest trace — the same inputs the engine's backend saw. *)
let hot_gtraces asm =
  let proc =
    Gb_system.Processor.create ~config:(Gb_system.Processor.config_for M.Unsafe)
      asm
  in
  ignore (Gb_system.Processor.run proc);
  let engine = Gb_system.Processor.engine proc in
  List.filter_map
    (fun r ->
      if r.Gb_dbt.Engine.r_tier = `Trace then
        Some
          (Gb_dbt.Trace_builder.build Gb_dbt.Trace_builder.default_config
             ~mem:(Gb_system.Processor.mem proc)
             ~profile:(Gb_dbt.Engine.branch_profile engine)
             ~entry:r.Gb_dbt.Engine.r_entry)
      else None)
    (Gb_dbt.Engine.regions engine)

(* One manual Min_cut translation: build, apply (optionally leaving the
   first repair unrealized), schedule, emit. Returns the emitted trace
   and the mitigation report carrying the plan. *)
let translate_min_cut ?(unsound = false) gtrace =
  let g = Gb_ir.Build.build ~opt:(M.opt_of_mode M.Min_cut) ~lat gtrace in
  let report = M.apply ~unsound_cut:unsound M.Min_cut ~lat g in
  let cycles = Gb_dbt.Sched.schedule res ~lat g in
  let trace =
    Gb_dbt.Codegen.emit res ~n_hidden:96 ~cycles
      ~entry_pc:gtrace.Gb_ir.Gtrace.entry
      ~guest_insns:(Gb_ir.Gtrace.length gtrace)
      ~meta:Gb_vliw.Vinsn.empty_meta g
  in
  (g, report, trace)

let plan_of report =
  match report.M.cut_plan with
  | Some plan -> plan
  | None -> Alcotest.fail "Min_cut report carries no cut plan"

(* --- analysis units ----------------------------------------------------- *)

let analyze_is_pure () =
  (* [analyze] must not mutate the graph: the plan of a second run is
     identical, and nothing is constrained in between *)
  List.iter
    (fun gtrace ->
      let g = Gb_ir.Build.build ~opt:(M.opt_of_mode M.Min_cut) ~lat gtrace in
      let p1 = L.analyze ~lat g in
      let p2 = L.analyze ~lat g in
      Alcotest.(check int) "same flow" p1.L.max_flow p2.L.max_flow;
      Alcotest.(check int) "same repair count" (List.length p1.L.repairs)
        (List.length p2.L.repairs);
      List.iter
        (fun r ->
          Alcotest.(check bool) "unrealized before apply" false L.(r.r_realized))
        p1.L.repairs)
    (hot_gtraces (v1_asm ()))

let attack_plan_shape () =
  (* on the v1 attack's hot traces the analysis must find speculative
     sources and cut them without ever falling back to a fence *)
  let some_repairs = ref false in
  List.iter
    (fun gtrace ->
      let _, report, _ = translate_min_cut gtrace in
      let plan = plan_of report in
      if plan.L.repairs <> [] then begin
        some_repairs := true;
        Alcotest.(check bool) "has sources" true (plan.L.sources > 0);
        Alcotest.(check int) "repair accounting"
          (List.length plan.L.repairs)
          (plan.L.dep_reinserts + plan.L.masks + plan.L.fences);
        List.iter
          (fun r ->
            Alcotest.(check bool) "realized after apply" true L.(r.r_realized))
          plan.L.repairs
      end;
      Alcotest.(check int) "no fence fallback" 0 plan.L.fences;
      Alcotest.(check int) "report counts fences from the plan" 0
        report.M.fences_inserted)
    (hot_gtraces (v1_asm ()));
  Alcotest.(check bool) "the attack needed repairs" true !some_repairs

let post_apply_poison_clean () =
  (* after realizing the cut, the poisoning analysis must find no
     remaining speculative-load-with-poisoned-address pattern *)
  List.iter
    (fun asm ->
      List.iter
        (fun gtrace ->
          let g, _, _ = translate_min_cut gtrace in
          Alcotest.(check (list int)) "no residual pattern" []
            (Gb_core.Poison.analyze g).Gb_core.Poison.patterns)
        (hot_gtraces asm))
    [ v1_asm (); v4_asm () ]

(* --- cut-soundness pass -------------------------------------------------- *)

let sound_cut_accepted () =
  List.iter
    (fun asm ->
      List.iter
        (fun gtrace ->
          let _, report, trace = translate_min_cut gtrace in
          let plan = plan_of report in
          Alcotest.(check int) "verifier silent" 0
            (List.length (Verifier.verify trace).Verifier.violations);
          Alcotest.(check int) "cut checker silent" 0
            (List.length (Verifier.check_cut trace ~plan)))
        (hot_gtraces asm))
    [ v1_asm (); v4_asm () ]

let unsound_cut_rejected () =
  (* the sensitivity control: skip realizing the first repair; the
     emitted schedule still speculates that load, and check_cut must say
     so. Without this negative test a vacuously-empty checker would
     pass every gate. *)
  let rejected = ref false in
  List.iter
    (fun gtrace ->
      let _, report, trace = translate_min_cut ~unsound:true gtrace in
      let plan = plan_of report in
      match plan.L.repairs with
      | [] -> ()
      | first :: _ ->
        Alcotest.(check bool) "first repair left unrealized" false
          L.(first.r_realized);
        let violations = Verifier.check_cut trace ~plan in
        Alcotest.(check bool) "unsound cut flagged" true (violations <> []);
        Alcotest.(check bool) "as unrealized-cut" true
          (List.exists
             (fun v -> v.Verifier.v_kind = Verifier.Unrealized_cut)
             violations);
        Alcotest.(check bool) "attributed to the skipped load" true
          (List.exists
             (fun v -> v.Verifier.v_id = L.(first.r_node))
             violations);
        rejected := true)
    (hot_gtraces (v1_asm ()));
  Alcotest.(check bool) "at least one trace exercised the control" true
    !rejected

let residual_flow_detected () =
  (* hand-built schedule with an empty plan: a schedule-speculative load
     feeding another speculative load's address is a residual
     source->transmitter path even though no repair is unrealized. The
     guarding exit (id 1) resolves in the last bundle, so both loads
     (ids 2 and 4) execute above an unresolved exit. *)
  let stub =
    Gb_vliw.Vinsn.make_stub ~exit_id:1 ~commits:[] ~target_pc:0x2000 ()
  in
  let load ~id ~pc ~dst ~base =
    Gb_vliw.Vinsn.Load
      {
        w = Gb_riscv.Insn.D;
        unsigned = false;
        dst;
        base;
        off = 0;
        spec = None;
        id;
        pc;
        hoisted = false;
      }
  in
  let trace =
    {
      Gb_vliw.Vinsn.entry_pc = 0x1000;
      bundles =
        [|
          [| load ~id:2 ~pc:0x10 ~dst:40 ~base:(Gb_vliw.Vinsn.R 1) |];
          [|
            load ~id:4 ~pc:0x14 ~dst:41 ~base:(Gb_vliw.Vinsn.R 40);
            Gb_vliw.Vinsn.Branch
              {
                cond = Gb_riscv.Insn.BNE;
                a = Gb_vliw.Vinsn.R 5;
                b = Gb_vliw.Vinsn.R 0;
                stub = 0;
              };
          |];
        |];
      stubs = [| stub |];
      n_regs = 64;
      guest_insns = 4;
      meta = Gb_vliw.Vinsn.empty_meta;
      decoded = Gb_vliw.Vinsn.Undecoded;
    }
  in
  let violations = Verifier.check_cut trace ~plan:L.empty_plan in
  Alcotest.(check bool) "residual flow flagged" true
    (List.exists
       (fun v -> v.Verifier.v_kind = Verifier.Residual_flow)
       violations)

(* --- end-to-end: Min_cut mode on the real attacks ------------------------ *)

let run_mode mode asm =
  Gb_system.Processor.run_program ~audit:true
    ~config:(Gb_system.Processor.config_for mode)
    asm

let min_cut_blocks_both_attacks () =
  List.iter
    (fun (name, program) ->
      let outcome =
        Gb_attack.Runner.run ~audit:true ~mode:M.Min_cut ~secret:"SQUEAK"
          program
      in
      Alcotest.(check int)
        (name ^ " leaks nothing under min-cut")
        0 outcome.Gb_attack.Runner.correct_bytes;
      match
        outcome.Gb_attack.Runner.result.Gb_system.Processor.audit
      with
      | Some s ->
        Alcotest.(check int)
          (name ^ " audit false negatives")
          0 s.Gb_cache.Audit.false_negatives
      | None -> Alcotest.fail "audit missing")
    [
      ("v1", Gb_attack.Spectre_v1.program ~secret:"SQUEAK" ());
      ("v4", Gb_attack.Spectre_v4.program ~secret:"SQUEAK" ());
    ]

let min_cut_cheaper_than_fences () =
  (* the placement headline: same safety, strictly fewer fences than
     fence-on-detect on both attack variants (min-cut repairs re-insert
     dependencies or mask instead) *)
  List.iter
    (fun asm ->
      let mc = run_mode M.Min_cut asm in
      let fence = run_mode M.Fence_on_detect asm in
      Alcotest.(check bool) "fence mode fenced something" true
        (fence.Gb_system.Processor.fences_inserted > 0);
      Alcotest.(check bool) "min-cut uses strictly fewer fences" true
        (mc.Gb_system.Processor.fences_inserted
        < fence.Gb_system.Processor.fences_inserted);
      Alcotest.(check bool) "min-cut constrained something" true
        (mc.Gb_system.Processor.loads_constrained > 0))
    [ v1_asm (); v4_asm () ]

let diff_oracle_agrees () =
  List.iter
    (fun program ->
      let r =
        Gb_diff.Oracle.run_kernel
          ~config:(Gb_system.Processor.config_for M.Min_cut)
          ~seed:1L program
      in
      Alcotest.(check bool) "oracle clean under min-cut" true
        (Gb_diff.Oracle.clean r))
    [
      Gb_attack.Spectre_v1.program ~secret:"SQUEAK" ();
      Gb_attack.Spectre_v4.program ~secret:"SQUEAK" ();
    ]

(* --- qcheck: random kernels under Min_cut -------------------------------- *)

(* Same kernel family as test_verify's cross-validation: a biased bounds
   check guarding a double indirection, sometimes with a store. *)
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

let qcheck_min_cut_sound =
  QCheck.Test.make ~count:6
    ~name:
      "random kernels: min-cut is verifier-silent, audit-clean, \
       oracle-identical and pattern-free"
    (QCheck.make kernel_gen)
    (fun program ->
      let asm = Gb_kernelc.Compile.assemble program in
      (* engine path: install-time verifier (verify + check_cut) silent *)
      let config =
        let config = Gb_system.Processor.config_for M.Min_cut in
        {
          config with
          Gb_system.Processor.engine =
            {
              config.Gb_system.Processor.engine with
              Gb_dbt.Engine.verify = Gb_dbt.Engine.Verify_report;
            };
        }
      in
      let r = Gb_system.Processor.run_program ~config ~audit:true asm in
      if r.Gb_system.Processor.verify_violations <> 0 then
        QCheck.Test.fail_reportf "%d verifier violation(s) under min-cut"
          r.Gb_system.Processor.verify_violations;
      (match r.Gb_system.Processor.audit with
      | Some s ->
        if s.Gb_cache.Audit.false_negatives <> 0 then
          QCheck.Test.fail_reportf "audit FN = %d under min-cut"
            s.Gb_cache.Audit.false_negatives
      | None -> QCheck.Test.fail_report "audit missing");
      (* differential oracle: DBT under min-cut == reference interpreter *)
      let oracle =
        Gb_diff.Oracle.run_kernel
          ~config:(Gb_system.Processor.config_for M.Min_cut)
          ~seed:1L program
      in
      if not (Gb_diff.Oracle.clean oracle) then
        QCheck.Test.fail_report "differential divergence under min-cut";
      (* post-apply graphs carry no residual pattern and sound cuts *)
      List.iter
        (fun gtrace ->
          let g, report, trace = translate_min_cut gtrace in
          if (Gb_core.Poison.analyze g).Gb_core.Poison.patterns <> [] then
            QCheck.Test.fail_report "residual Spectre pattern after min-cut";
          if Verifier.check_cut trace ~plan:(plan_of report) <> [] then
            QCheck.Test.fail_report "check_cut rejected a sound cut")
        (hot_gtraces asm);
      true)

let () =
  Alcotest.run "leakcut"
    [
      ( "analysis",
        [
          Alcotest.test_case "analyze is pure" `Quick analyze_is_pure;
          Alcotest.test_case "attack plan shape" `Quick attack_plan_shape;
          Alcotest.test_case "post-apply poison clean" `Quick
            post_apply_poison_clean;
        ] );
      ( "cut-soundness",
        [
          Alcotest.test_case "sound cut accepted" `Quick sound_cut_accepted;
          Alcotest.test_case "unsound cut rejected" `Quick unsound_cut_rejected;
          Alcotest.test_case "residual flow detected" `Quick
            residual_flow_detected;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "min-cut blocks both attacks" `Quick
            min_cut_blocks_both_attacks;
          Alcotest.test_case "min-cut cheaper than fences" `Quick
            min_cut_cheaper_than_fences;
          Alcotest.test_case "diff oracle agrees" `Quick diff_oracle_agrees;
          QCheck_alcotest.to_alcotest qcheck_min_cut_sound;
        ] );
    ]
