module E = Gb_experiments.Experiments
module J = Gb_util.Json

let mode_name = Gb_core.Mitigation.mode_name

let mitigated_modes =
  [
    Gb_core.Mitigation.Fine_grained;
    Gb_core.Mitigation.Fence_on_detect;
    Gb_core.Mitigation.Min_cut;
    Gb_core.Mitigation.No_speculation;
  ]

let config_snapshot () =
  let config = Gb_system.Processor.config_for Gb_core.Mitigation.Unsafe in
  let engine = config.Gb_system.Processor.engine in
  [
    ( "cc_capacity",
      J.Int engine.Gb_dbt.Engine.cache.Gb_dbt.Code_cache.capacity );
    ("chain", J.Bool engine.Gb_dbt.Engine.cache.Gb_dbt.Code_cache.chain);
    ("hot_threshold", J.Int engine.Gb_dbt.Engine.hot_threshold);
    ("width", J.Int engine.Gb_dbt.Engine.resources.Gb_dbt.Sched.width);
    ( "modes",
      J.List
        (List.map
           (fun m -> J.String (mode_name m))
           Gb_core.Mitigation.all_modes) );
  ]

let counters_snapshot ?(seed = 1L) () =
  let w = List.hd Gb_workloads.Polybench.all in
  let obs = Gb_obs.Sink.create ~seed () in
  let _ =
    Gb_system.Processor.run_program
      ~config:(Gb_system.Processor.config_for Gb_core.Mitigation.Fine_grained)
      ~obs
      (Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program)
  in
  Gb_obs.Sink.counters obs

let cycles_of mc mode =
  match mode with
  | Gb_core.Mitigation.Unsafe -> mc.E.unsafe
  | Gb_core.Mitigation.Fine_grained -> mc.E.fine_grained
  | Gb_core.Mitigation.Fence_on_detect -> mc.E.fence
  | Gb_core.Mitigation.Min_cut -> mc.E.min_cut
  | Gb_core.Mitigation.No_speculation -> mc.E.no_spec

(* cycles + slowdowns + audited false negatives of one measured workload *)
let mode_cycles_cells ~exp (mc : E.mode_cycles) =
  let name metric mode =
    Printf.sprintf "%s.%s.%s.%s" metric exp mc.E.w_name (mode_name mode)
  in
  List.map
    (fun mode ->
      (name "cycles" mode, Int64.to_float (cycles_of mc mode)))
    Gb_core.Mitigation.all_modes
  @ List.map
      (fun mode -> (name "slowdown" mode, E.slowdown mc ~mode))
      mitigated_modes
  @ List.filter_map
      (fun (mode, audit) ->
        Option.map
          (fun (s : Gb_cache.Audit.summary) ->
            ( name "audit_fn" mode,
              float_of_int s.Gb_cache.Audit.false_negatives ))
          audit)
      [
        (Gb_core.Mitigation.Unsafe, mc.E.unsafe_audit);
        (Gb_core.Mitigation.Fine_grained, mc.E.fine_audit);
      ]

(* per-cause cycle shares of one measured workload (attributed runs
   only): [cause_share.EXP.KERNEL.MODE.CAUSE]. Every cause is always
   present for an attributed run, so the coverage is stable and the
   gate's Removed check bites if attribution is lost. *)
let cause_cells ~exp (mc : E.mode_cycles) =
  List.concat_map
    (fun (mode, shares) ->
      List.map
        (fun (cause, share) ->
          ( Printf.sprintf "cause_share.%s.%s.%s.%s" exp mc.E.w_name mode
              cause,
            share ))
        shares)
    mc.E.causes

let poc_cells (poc : E.poc_row list) =
  List.concat_map
    (fun (r : E.poc_row) ->
      let result = r.E.outcome.Gb_attack.Runner.result in
      let name metric =
        Printf.sprintf "%s.e1.%s.%s" metric r.E.variant (mode_name r.E.mode)
      in
      ( name "cycles",
        Int64.to_float result.Gb_system.Processor.cycles )
      ::
      (match result.Gb_system.Processor.audit with
      | Some s ->
        [
          ( name "audit_fn",
            float_of_int s.Gb_cache.Audit.false_negatives );
        ]
      | None -> []))
    poc

let poc_verdicts (poc : E.poc_row list) =
  List.map
    (fun (r : E.poc_row) ->
      ( Printf.sprintf "e1.%s.%s.leaked" r.E.variant (mode_name r.E.mode),
        Gb_attack.Runner.succeeded r.E.outcome ))
    poc

let chaining_cells (rows : E.chain_row list) =
  List.concat_map
    (fun (r : E.chain_row) ->
      [
        ( Printf.sprintf "exits_per_1k.e8.%s.nochain" r.E.c_name,
          E.per_1k r.E.c_exits_nochain r.E.c_guest_insns );
        ( Printf.sprintf "exits_per_1k.e8.%s.chain" r.E.c_name,
          E.per_1k r.E.c_exits_chain r.E.c_guest_insns );
      ])
    rows

let chaining_verdicts (rows : E.chain_row list) =
  List.concat_map
    (fun (r : E.chain_row) ->
      [
        (Printf.sprintf "e8.%s.cycles_equal" r.E.c_name, r.E.c_cycles_equal);
        (Printf.sprintf "e8.%s.arch_equal" r.E.c_name, r.E.c_arch_equal);
      ])
    rows

let e9_verdicts (e9 : E.e9) =
  let silent rows = List.for_all (fun r -> r.E.v_violations = 0) rows in
  let mitigated_attacks =
    List.filter (fun r -> r.E.v_mode <> Gb_core.Mitigation.Unsafe) e9.E.e9_attacks
  in
  [
    ("e9.mitigated_silent", silent (mitigated_attacks @ e9.E.e9_workloads));
    ( "e9.static_fn_zero",
      List.for_all
        (fun r -> r.E.v_uncovered = [])
        (e9.E.e9_attacks @ e9.E.e9_workloads) );
    ( "e9.scanner_recall_1",
      List.for_all
        (fun s -> s.E.s_score.Gb_verify.Scanner.recall >= 1.0)
        e9.E.e9_scans );
  ]

(* Headline verdicts of the min-cut mode: it must serialize strictly
   less than fence-on-detect — fewer fences on every attack variant and
   no larger fence-stall cycle share on every attributed E2 row — while
   the leak/soundness verdicts themselves come from [poc_verdicts] and
   [e9_verdicts]. *)
let min_cut_verdicts ~(poc : E.poc_row list) ~figure4 =
  let fences mode variant =
    List.find_map
      (fun (r : E.poc_row) ->
        if r.E.variant = variant && r.E.mode = mode then
          Some
            r.E.outcome.Gb_attack.Runner.result
              .Gb_system.Processor.fences_inserted
        else None)
      poc
  in
  let variants =
    List.sort_uniq compare (List.map (fun (r : E.poc_row) -> r.E.variant) poc)
  in
  let fewer_fences =
    List.filter_map
      (fun variant ->
        match
          ( fences Gb_core.Mitigation.Min_cut variant,
            fences Gb_core.Mitigation.Fence_on_detect variant )
        with
        | Some mc, Some f ->
          Some (Printf.sprintf "e1.%s.min_cut_fewer_fences" variant, mc < f)
        | _ -> None)
      variants
  in
  let share mode cause (mc : E.mode_cycles) =
    match List.assoc_opt mode mc.E.causes with
    | Some shares -> Option.value ~default:0. (List.assoc_opt cause shares)
    | None -> 0.
  in
  let attributed =
    List.filter (fun (mc : E.mode_cycles) -> mc.E.causes <> []) figure4
  in
  fewer_fences
  @
  if attributed = [] then []
  else
    [
      ( "e2.min_cut_fence_stall_leq_fence_mode",
        List.for_all
          (fun mc ->
            share "min-cut" "fence-stall" mc
            <= share "fence-on-detect" "fence-stall" mc)
          attributed );
    ]

let e10_cells (m : Gb_diff.Matrix.t) =
  let total f =
    float_of_int
      (List.fold_left (fun acc r -> acc + f r) 0 m.Gb_diff.Matrix.rows)
  in
  [
    ("faults.e10.injected", total (fun r -> r.Gb_diff.Matrix.r_injected));
    ("faults.e10.recovered", total (fun r -> r.Gb_diff.Matrix.r_recovered));
    ( "faults.e10.syncs",
      total (fun r -> r.Gb_diff.Matrix.r_syncs) );
  ]

let e10_verdicts (m : Gb_diff.Matrix.t) =
  [
    ("e10.passed", Gb_diff.Matrix.pass m);
    ("e10.sensitivity_detected", m.Gb_diff.Matrix.sensitivity_detected);
  ]

(* Allocation discipline of the two execution tiers, measured on gemm
   (the suite's first kernel, ALU/load dense): minor words allocated per
   1000 guest instructions, with the translation pipeline excluded from
   the processor runs via the engine's {!Gb_obs.Allocs} exclusion
   windows. The interpreter cell brackets a pure interpreter run — no
   translation to exclude.
   These cells are what the CI perf gate holds the hot loops to (rule
   [alloc.], see {!Baseline.rule_for}): a leaked per-instruction
   allocation shows up as a step in this trajectory. *)
let alloc_modes =
  [ Gb_core.Mitigation.Fence_on_detect; Gb_core.Mitigation.Min_cut ]

let alloc_cells () =
  let w = List.hd Gb_workloads.Polybench.all in
  let program = Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program in
  let cell name words insns =
    ( "alloc.minor_words_per_kinsn." ^ name,
      Gb_obs.Allocs.per_kinsn ~words ~insns )
  in
  let interp_cell =
    let mem =
      Gb_riscv.Mem.create
        ~size:Gb_system.Processor.default_config.Gb_system.Processor.mem_size
    in
    Gb_riscv.Asm.load mem program;
    let i = Gb_riscv.Interp.create ~mem ~pc:program.Gb_riscv.Asm.entry () in
    let a = Gb_obs.Allocs.create () in
    Gb_obs.Allocs.start a;
    let (_ : int) = Gb_riscv.Interp.run i in
    cell "interp" (Gb_obs.Allocs.stop a) i.Gb_riscv.Interp.insn_count
  in
  interp_cell
  :: List.map
       (fun mode ->
         let config = Gb_system.Processor.config_for mode in
         let p = Gb_system.Processor.create ~config program in
         let a = Gb_system.Processor.allocs p in
         Gb_obs.Allocs.start a;
         let r = Gb_system.Processor.run p in
         cell
           ("pipeline." ^ mode_name mode)
           (Gb_obs.Allocs.stop a) r.Gb_system.Processor.guest_insns)
       alloc_modes

let geomean_cells figure4 =
  List.map
    (fun mode ->
      ( Printf.sprintf "slowdown.e2.geomean.%s" (mode_name mode),
        E.geomean_slowdown figure4 ~mode ))
    mitigated_modes

let collect ?(seed = 1L) () =
  let poc = E.e1_poc_matrix ~audit:true ~seed () in
  let figure4 = E.e2_figure4 ~audit:true () in
  let e4 = E.e4_matmul_ablation ~audit:true () in
  let chaining = E.e8_chaining () in
  let counters = counters_snapshot ~seed () in
  let constrained =
    E.e1_poc_matrix ~audit:true ~seed ~cc_capacity:E.e8_tiny_capacity ()
  in
  let e9 = E.e9_verify () in
  let e10 = Gb_diff.Matrix.run ~seed () in
  let metrics =
    poc_cells poc
    @ List.concat_map (mode_cycles_cells ~exp:"e2") figure4
    @ List.concat_map (cause_cells ~exp:"e2") figure4
    @ geomean_cells figure4
    @ mode_cycles_cells ~exp:"e4" e4
    @ chaining_cells chaining
    @ List.map (fun (name, v) -> ("counter." ^ name, float_of_int v)) counters
    @ alloc_cells ()
    @ e10_cells e10
  in
  let verdicts =
    poc_verdicts poc
    @ min_cut_verdicts ~poc ~figure4
    @ chaining_verdicts chaining
    @ [ ("e8.verdicts_unchanged", E.poc_verdicts_equal poc constrained) ]
    @ e9_verdicts e9
    @ e10_verdicts e10
  in
  Manifest.make ~seed ~config:(config_snapshot ()) ~verdicts metrics
