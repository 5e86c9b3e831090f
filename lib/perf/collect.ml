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

(* cycles + slowdowns + audited false negatives of one measured workload *)
let mode_cycles_cells ~exp (mc : E.mode_cycles) =
  let name metric mode =
    Printf.sprintf "%s.%s.%s.%s" metric exp mc.E.w_name (mode_name mode)
  in
  List.map
    (fun mode ->
      (name "cycles" mode, Int64.to_float (E.cycles_of mc mode)))
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

(* the patterns a workload's translations detected, for the table of
   experiment [exp] (E3 reads E2's workloads, E4 its own) *)
let patterns_cell ~exp (mc : E.mode_cycles) =
  ( Printf.sprintf "table.%s.%s.patterns" exp mc.E.w_name,
    float_of_int mc.E.patterns )

(* the attributed cycles of every E2 program, summed per mode and cause:
   [cause_cycles.e2.MODE.CAUSE]. Every cause of every mode is present,
   so the coverage is stable and the gate's Removed check bites if
   attribution is lost; a cause moving either way past the cycles'
   tolerance means cycles went to another cause. *)
let cause_cycles_cells (figure4 : E.mode_cycles list) =
  let units mode cause =
    List.fold_left
      (fun acc (mc : E.mode_cycles) ->
        acc + List.assoc cause (List.assoc mode mc.E.causes))
      0 figure4
  in
  List.concat_map
    (fun mode ->
      List.map
        (fun cause ->
          ( Printf.sprintf "cause_cycles.e2.%s.%s" (mode_name mode)
              (Gb_obs.Attrib.cause_name cause),
            float_of_int (units mode cause)
            /. float_of_int Gb_obs.Attrib.scale ))
        Gb_obs.Attrib.all_causes)
    Gb_core.Mitigation.all_modes

let poc_cells (poc : E.poc_row list) =
  List.concat_map
    (fun (r : E.poc_row) ->
      let o = r.E.outcome in
      let result = o.Gb_attack.Runner.result in
      let name metric =
        Printf.sprintf "%s.e1.%s.%s" metric r.E.variant (mode_name r.E.mode)
      in
      let table field v = (name "table" ^ "." ^ field, float_of_int v) in
      [
        (name "cycles", Int64.to_float result.Gb_system.Processor.cycles);
        table "bytes-recovered" o.Gb_attack.Runner.correct_bytes;
        table "bytes-total" o.Gb_attack.Runner.total_bytes;
        table "rollbacks" (Int64.to_int result.Gb_system.Processor.rollbacks);
        table "patterns" result.Gb_system.Processor.patterns_found;
      ]
      @
      match result.Gb_system.Processor.audit with
      | Some s ->
        [ (name "audit_fn", float_of_int s.Gb_cache.Audit.false_negatives) ]
      | None -> [])
    poc

let poc_verdicts (poc : E.poc_row list) =
  List.map
    (fun (r : E.poc_row) ->
      ( Printf.sprintf "e1.%s.%s.leaked" r.E.variant (mode_name r.E.mode),
        Gb_attack.Runner.succeeded r.E.outcome ))
    poc

(* trace translations per 1k guest instructions in the default cache:
   a code cache that starts evicting (or a translator that stops
   reusing its code) shows up here long before it moves cycles *)
let eviction_cells (rows : E.churn_row list) =
  List.map
    (fun (r : E.churn_row) ->
      ( Printf.sprintf "translations_per_1k.e8.%s" r.E.c_name,
        E.per_1k r.E.c_translations r.E.c_guest_insns ))
    rows

let eviction_verdicts (rows : E.churn_row list) =
  List.map
    (fun (r : E.churn_row) ->
      (Printf.sprintf "e8.%s.arch_equal" r.E.c_name, r.E.c_arch_equal))
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
   no larger fence-stall cycle share on every E2 row — while
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
  let fence_stall_share mode (mc : E.mode_cycles) =
    let units = List.assoc mode mc.E.causes in
    let total = List.fold_left (fun acc (_, u) -> acc + u) 0 units in
    if total = 0 then 0.
    else
      float_of_int (List.assoc Gb_obs.Attrib.Fence_stall units)
      /. float_of_int total
  in
  fewer_fences
  @ [
      ( "e2.min_cut_fence_stall_leq_fence_mode",
        List.for_all
          (fun mc ->
            fence_stall_share Gb_core.Mitigation.Min_cut mc
            <= fence_stall_share Gb_core.Mitigation.Fence_on_detect mc)
          figure4 );
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

(* E5: the probe latencies of the re-touched lines (hits) and of the
   flushed ones (misses), as a line count and a latency range each *)
let e5_cells (latencies : int array) =
  let hit, miss =
    List.partition
      (fun (i, _) -> List.mem i E.e5_hot_candidates)
      (List.mapi (fun i t -> (i, t)) (Array.to_list latencies))
  in
  let cluster name probes =
    let ts = List.map snd probes in
    let cell field v =
      (Printf.sprintf "table.e5.%s.%s" name field, float_of_int v)
    in
    [
      cell "lines" (List.length ts);
      cell "min" (List.fold_left min max_int ts);
      cell "max" (List.fold_left max min_int ts);
    ]
  in
  cluster "hit" hit @ cluster "miss" miss

(* E6: one design point per row, [<family>.e6.<param>.<value>...] *)
let e6_cells (rows : Gb_experiments.Ablations.row list) =
  List.concat_map
    (fun (r : Gb_experiments.Ablations.row) ->
      let name metric =
        Printf.sprintf "%s.e6.%s.%s" metric r.Gb_experiments.Ablations.param
          r.Gb_experiments.Ablations.value
      in
      let leaks b = if b then 1. else 0. in
      [
        ( name "cycles",
          Int64.to_float r.Gb_experiments.Ablations.unsafe_cycles );
        ( name "slowdown" ^ ".no-speculation",
          r.Gb_experiments.Ablations.no_spec_slowdown );
        (name "table" ^ ".v1-leaks", leaks r.Gb_experiments.Ablations.v1_leaks);
        (name "table" ^ ".v4-leaks", leaks r.Gb_experiments.Ablations.v4_leaks);
      ])
    rows

(* E7: the secret's bits, and how many each mode's attack recovered *)
let e7_cells outcomes =
  List.concat_map
    (fun (mode, (o : Gb_attack.Translation_channel.outcome)) ->
      let cell field v =
        ( Printf.sprintf "table.e7.%s.%s" (mode_name mode) field,
          float_of_int v )
      in
      [
        cell "bits-recovered" o.Gb_attack.Translation_channel.correct_bits;
        cell "bits-total" o.Gb_attack.Translation_channel.total_bits;
      ])
    outcomes

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
  let e5 = E.e5_hit_miss () in
  let e6 = Gb_experiments.Ablations.all () in
  let e7 = E.e7_translation_channel () in
  let eviction = E.e8_eviction () in
  let counters = counters_snapshot ~seed () in
  let constrained =
    E.e1_poc_matrix ~audit:true ~seed ~cc_capacity:E.e8_tiny_capacity ()
  in
  let e9 = E.e9_verify () in
  let e10 = Gb_diff.Matrix.run ~seed () in
  let metrics =
    poc_cells poc
    @ List.concat_map (mode_cycles_cells ~exp:"e2") figure4
    @ cause_cycles_cells figure4
    @ geomean_cells figure4
    @ List.map (patterns_cell ~exp:"e3") figure4
    @ mode_cycles_cells ~exp:"e4" e4
    @ [ patterns_cell ~exp:"e4" e4 ]
    @ e5_cells e5
    @ e6_cells e6
    @ e7_cells e7
    @ eviction_cells eviction
    @ List.map (fun (name, v) -> ("counter." ^ name, float_of_int v)) counters
    @ alloc_cells ()
    @ e10_cells e10
  in
  let verdicts =
    poc_verdicts poc
    @ min_cut_verdicts ~poc ~figure4
    @ eviction_verdicts eviction
    @ [ ("e8.verdicts_unchanged", E.poc_verdicts_equal poc constrained) ]
    @ e9_verdicts e9
    @ e10_verdicts e10
  in
  Manifest.make ~seed ~config:(config_snapshot ()) ~verdicts metrics
