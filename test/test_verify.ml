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

let qcheck_random_kernels =
  QCheck.Test.make ~count:6 ~name:"random kernels: verifier silent when \
                                   constrained, covers the audit when not"
    (QCheck.make Random_kernel.gen) (fun program ->
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

(* --- verifier = reference ----------------------------------------------- *)

module Ref = Verifier_reference

(* Plans that exercise every branch of the cut pass's first obligation
   on a real schedule: each load of the trace protected by each kind of
   repair, plus a repair of a node the trace does not have. With one
   fence repair per load the fence count can fall short, with none it
   cannot. *)
let synthetic_plans (tr : V.trace) =
  let module L = Gb_core.Leakcut in
  let loads =
    Array.fold_left
      (fun acc bundle ->
        Array.fold_left
          (fun acc op ->
            match op with
            | V.Load { id; pc; _ } -> (id, pc) :: acc
            | _ -> acc)
          acc bundle)
      [] tr.V.bundles
  in
  let repair r_kind (r_node, r_pc) =
    { L.r_node; r_pc; r_kind; r_cost = 1; r_realized = true }
  in
  let plan repairs = { L.empty_plan with L.repairs } in
  let missing = repair L.Mask (max_int, 0) in
  [
    plan (List.map (repair L.Dep_reinsert) loads @ [ missing ]);
    plan (List.map (repair L.Mask) loads);
    plan (List.map (repair L.Fence) loads);
    plan (repair L.Fence (0, 0) :: List.map (repair L.Mask) loads);
  ]

(* [verify], [check_cut] under [plans] and the combined [gate] of one
   trace, each against the reference. *)
let same_as_reference ~what (tr : V.trace) plans =
  let expected = Ref.verify tr in
  if Verifier.verify tr <> expected then
    Alcotest.failf "%s: verify differs from the reference" what;
  if Verifier.gate tr <> expected then
    Alcotest.failf "%s: gate without a plan differs from verify" what;
  List.iter
    (fun plan ->
      let cut = Ref.check_cut tr ~plan in
      if Verifier.check_cut tr ~plan <> cut then
        Alcotest.failf "%s: check_cut differs from the reference" what;
      if
        Verifier.gate ~plan tr
        <> { expected with Verifier.violations = expected.Verifier.violations @ cut }
      then Alcotest.failf "%s: gate differs from verify + check_cut" what)
    plans

(* Every distinct trace the engine installs running [asm] under [mode]
   in a [capacity]-bundle code cache, violating ones included (the gate
   only reports), in first-install order. Eviction churn reinstalls the
   same code over and over; a trace counts once per distinct schedule. *)
let installed_traces ~capacity mode asm =
  let p =
    Pinned.processor
      ~engine:(fun e ->
        { e with
          Gb_dbt.Engine.verify = Gb_dbt.Engine.Verify_report;
          cache = { e.Gb_dbt.Engine.cache with Gb_dbt.Code_cache.capacity } })
      mode asm
  in
  let seen = Hashtbl.create 64 and traces = ref [] in
  Gb_dbt.Code_cache.set_on_insert
    (Gb_dbt.Engine.code_cache (Gb_system.Processor.engine p))
    (fun e ->
      let tr = e.Gb_dbt.Code_cache.e_trace in
      (* the schedule, without the decoded closures *)
      let key = (tr.V.entry_pc, tr.V.bundles, tr.V.stubs, tr.V.n_regs) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        traces := tr :: !traces
      end);
  ignore (Gb_system.Processor.run p);
  (p, List.rev !traces)

(* The real plans: each trace region left at the end of a min-cut run,
   lowered again through the public phases on the final profile. *)
let min_cut_lowerings p =
  let eng = Gb_system.Processor.engine p in
  let cfg = Gb_dbt.Engine.config eng in
  let lat = cfg.Gb_dbt.Engine.lat and res = cfg.Gb_dbt.Engine.resources in
  List.filter_map
    (fun (r : Gb_dbt.Engine.region) ->
      match r.Gb_dbt.Engine.r_tier with
      | `Block -> None
      | `Trace -> (
        match
          Gb_dbt.Trace_builder.build cfg.Gb_dbt.Engine.trace_cfg
            ~mem:(Gb_system.Processor.mem p)
            ~profile:(Gb_dbt.Engine.branch_profile eng)
            ~entry:r.Gb_dbt.Engine.r_entry
        with
        | exception Gb_dbt.Trace_builder.Build_failure _ -> None
        | gtrace ->
          let mode = Gb_core.Mitigation.Min_cut in
          let g =
            Gb_ir.Build.build ~opt:(Gb_core.Mitigation.opt_of_mode mode) ~lat
              gtrace
          in
          let report = Gb_core.Mitigation.apply mode ~lat g in
          let cycles = Gb_dbt.Sched.schedule res ~lat g in
          let tr =
            Gb_dbt.Codegen.emit res ~n_hidden:cfg.Gb_dbt.Engine.n_hidden
              ~cycles ~entry_pc:r.Gb_dbt.Engine.r_entry
              ~guest_insns:(Gb_ir.Gtrace.length gtrace)
              ~meta:V.empty_meta g
          in
          Option.map (fun plan -> (tr, plan)) report.Gb_core.Mitigation.cut_plan))
    (Gb_dbt.Engine.regions eng)

let check_program ~name asm =
  List.fold_left
    (fun (n, bad) mode ->
      List.fold_left
        (fun (n, bad) capacity ->
          let p, traces = installed_traces ~capacity mode asm in
          List.iteri
            (fun i tr ->
              same_as_reference
                ~what:
                  (Printf.sprintf "%s %s %d bundles, install %d" name
                     (Gb_core.Mitigation.mode_name mode) capacity i)
                tr (synthetic_plans tr))
            traces;
          if mode = Gb_core.Mitigation.Min_cut then
            List.iter
              (fun (tr, plan) ->
                same_as_reference
                  ~what:(Printf.sprintf "%s min-cut lowering 0x%x" name
                           tr.V.entry_pc)
                  tr [ plan ])
              (min_cut_lowerings p);
          let bad =
            bad
            + List.length
                (List.filter
                   (fun tr -> not (Verifier.ok (Verifier.verify tr)))
                   traces)
          in
          (n + List.length traces, bad))
        (n, bad) [ 65536; 384; 96 ])
    (0, 0) Gb_core.Mitigation.all_modes

let matches_reference_on_programs () =
  let programs =
    List.map
      (fun (w : Gb_workloads.Polybench.t) ->
        (w.Gb_workloads.Polybench.name,
         Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program))
      (Gb_workloads.Polybench.all @ [ Gb_workloads.Polybench.matmul_ptr ])
    @ [ ("spectre-v1", v1_asm ()); ("spectre-v4", v4_asm ()) ]
  in
  let n, bad =
    List.fold_left
      (fun (n, bad) (name, asm) ->
        let n', bad' = check_program ~name asm in
        (n + n', bad + bad'))
      (0, 0) programs
  in
  (* not vacuous: thousands of traces, violating ones among them *)
  Alcotest.(check bool) (Printf.sprintf "%d traces compared" n) true
    (n > 1000);
  Alcotest.(check bool) (Printf.sprintf "%d violating traces compared" bad)
    true (bad > 0)

(* Random schedules no scheduler would emit — exits and loads sharing a
   bundle, several exits in one bundle, two writes to one register in a
   bundle, writes to x0, MCB checks in any order — with random repair
   plans next to the synthetic ones. *)
let gen_schedule =
  let open QCheck.Gen in
  let reg = int_range 0 7 in
  let operand =
    frequency [ (4, map (fun r -> V.R r) reg); (1, return (V.I 0L)) ]
  in
  let id = int_range 0 15 in
  let pc = map (fun k -> 0x100 + (4 * k)) (int_range 0 7) in
  let stub_idx = int_range 0 2 in
  let tag = oneofl [ -1; 0; 1; 2; 5 ] in
  let op =
    frequency
      [
        ( 4,
          map3
            (fun dst a b -> V.Alu { op = Gb_riscv.Insn.ADD; dst; a; b })
            reg operand operand );
        ( 1,
          map2
            (fun dst a -> V.Alu { op = Gb_riscv.Insn.AND; dst; a; b = V.I (-1L) })
            reg operand );
        (1, map2 (fun dst src -> V.Mv { dst; src }) reg operand);
        (1, map (fun dst -> V.Rdcycle { dst }) reg);
        ( 4,
          let* dst = reg and* base = operand and* spec = opt tag in
          let* id = id and* pc = pc and* hoisted = bool in
          return (load ?spec ~hoisted ~id ~pc ~dst ~base ()) );
        ( 2,
          let* src = operand and* base = operand and* id = id and* pc = pc in
          return
            (V.Store { w = Gb_riscv.Insn.D; src; base; off = 0; id; pc }) );
        ( 1,
          let* base = operand and* id = id and* pc = pc in
          return (V.Cflush { base; off = 0; id; pc }) );
        ( 2,
          map2
            (fun a stub ->
              V.Branch { cond = Gb_riscv.Insn.BNE; a; b = V.R 0; stub })
            operand stub_idx );
        (1, map2 (fun tag stub -> V.Chk { tag; stub }) tag stub_idx);
        (1, map (fun stub -> V.Exit { stub }) stub_idx);
        (1, return V.Fence);
        (1, return V.Nop);
      ]
  in
  let* n = int_range 1 8 in
  let* bundles = list_repeat n (list_size (int_range 0 4) op) in
  let* stubs =
    list_repeat 3
      (let* exit_id = frequency [ (4, id); (1, return max_int) ] in
       let* commits = list_size (int_range 0 3) (pair reg operand) in
       let* target = pc in
       return (stub ~commits ~exit_id ~target ()))
  in
  let repair =
    let* r_node = int_range 0 16 and* r_pc = pc in
    let* r_kind =
      oneofl Gb_core.Leakcut.[ Dep_reinsert; Mask; Fence ]
    in
    return
      { Gb_core.Leakcut.r_node; r_pc; r_kind; r_cost = 1; r_realized = true }
  in
  let* repairs = list_size (int_range 0 5) repair in
  let tr =
    { (mk ~stubs:(Array.of_list stubs)
         (Array.of_list (List.map Array.of_list bundles)))
      with V.n_regs = 8 }
  in
  return (tr, { Gb_core.Leakcut.empty_plan with Gb_core.Leakcut.repairs })

let random_schedules_match_reference =
  QCheck.Test.make ~count:2000 ~name:"random schedules: verifier = reference"
    (QCheck.make gen_schedule) (fun (tr, plan) ->
      same_as_reference ~what:"random schedule" tr
        (plan :: synthetic_plans tr);
      true)

let matches_reference_prop =
  QCheck.Test.make ~count:4 ~name:"random kernels: verifier = reference"
    (QCheck.make Random_kernel.gen) (fun program ->
      ignore
        (check_program ~name:"random kernel"
           (Gb_kernelc.Compile.assemble program));
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
          Alcotest.test_case "verifier = reference on every install" `Quick
            matches_reference_on_programs;
          QCheck_alcotest.to_alcotest matches_reference_prop;
          QCheck_alcotest.to_alcotest random_schedules_match_reference;
        ] );
    ]
