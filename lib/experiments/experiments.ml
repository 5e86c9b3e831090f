let default_secret = "GhostBusters"

type mode_cycles = {
  w_name : string;
  unsafe : int64;
  fine_grained : int64;
  fence : int64;
  min_cut : int64;
  no_spec : int64;
  patterns : int;
  unsafe_audit : Gb_cache.Audit.summary option;
  fine_audit : Gb_cache.Audit.summary option;
  causes : (Gb_core.Mitigation.mode * (Gb_obs.Attrib.cause * int) list) list;
}

let cycles_of mc = function
  | Gb_core.Mitigation.Unsafe -> mc.unsafe
  | Gb_core.Mitigation.Fine_grained -> mc.fine_grained
  | Gb_core.Mitigation.Fence_on_detect -> mc.fence
  | Gb_core.Mitigation.Min_cut -> mc.min_cut
  | Gb_core.Mitigation.No_speculation -> mc.no_spec

let slowdown mc ~mode = Int64.to_float (cycles_of mc mode) /. Int64.to_float mc.unsafe

let run_workload ?(audit = false) ?obs mode program =
  Gb_system.Processor.run_program ~audit ?obs
    ~config:(Gb_system.Processor.config_for mode)
    (Gb_kernelc.Compile.assemble program)

let measure_program ?(audit = false) ?(attrib = false) ~name program =
  (* [attrib] threads a fresh cycle-attribution ledger through each
     mode's run (a fresh one per run: the conservation invariant holds
     against that run's clock) and captures its units per cause *)
  let run mode =
    if attrib then begin
      let obs = Gb_obs.Sink.create ~attrib:true () in
      let r = run_workload ~audit ~obs mode program in
      let units =
        match Gb_obs.Sink.attrib obs with
        | Some a -> Gb_obs.Attrib.by_cause a
        | None -> []
      in
      (r, (mode, units))
    end
    else (run_workload ~audit mode program, (mode, []))
  in
  let unsafe_r, unsafe_c = run Gb_core.Mitigation.Unsafe in
  let fine_r, fine_c = run Gb_core.Mitigation.Fine_grained in
  let fence_r, fence_c = run Gb_core.Mitigation.Fence_on_detect in
  let mincut_r, mincut_c = run Gb_core.Mitigation.Min_cut in
  let nospec_r, nospec_c = run Gb_core.Mitigation.No_speculation in
  let check (r : Gb_system.Processor.result) =
    if r.Gb_system.Processor.exit_code <> unsafe_r.Gb_system.Processor.exit_code
    then
      failwith
        (Printf.sprintf "workload %s: architectural mismatch between modes"
           name)
  in
  check fine_r;
  check fence_r;
  check mincut_r;
  check nospec_r;
  {
    w_name = name;
    unsafe = unsafe_r.Gb_system.Processor.cycles;
    fine_grained = fine_r.Gb_system.Processor.cycles;
    fence = fence_r.Gb_system.Processor.cycles;
    min_cut = mincut_r.Gb_system.Processor.cycles;
    no_spec = nospec_r.Gb_system.Processor.cycles;
    patterns = fine_r.Gb_system.Processor.patterns_found;
    unsafe_audit = unsafe_r.Gb_system.Processor.audit;
    fine_audit = fine_r.Gb_system.Processor.audit;
    causes =
      (if attrib then [ unsafe_c; fine_c; fence_c; mincut_c; nospec_c ]
       else []);
  }

type poc_row = {
  variant : string;
  mode : Gb_core.Mitigation.mode;
  outcome : Gb_attack.Runner.outcome;
}

let attack_programs ~secret =
  [
    ("spectre-v1", Gb_attack.Spectre_v1.program ~secret ());
    ("spectre-v4", Gb_attack.Spectre_v4.program ~secret ());
  ]

(* [config_for mode] with the code cache capped at [cc_capacity] bundles
   (and everything else untouched) — the capacity-constrained
   configurations of E1 and E8 *)
let config_capped mode cc_capacity =
  let config = Gb_system.Processor.config_for mode in
  let engine = config.Gb_system.Processor.engine in
  {
    config with
    Gb_system.Processor.engine =
      {
        engine with
        Gb_dbt.Engine.cache =
          { engine.Gb_dbt.Engine.cache with
            Gb_dbt.Code_cache.capacity = cc_capacity };
      };
  }

let e1_poc_matrix ?(secret = default_secret) ?(audit = false) ?(seed = 1L)
    ?cc_capacity () =
  List.concat_map
    (fun (variant, program) ->
      List.map
        (fun mode ->
          let config = Option.map (config_capped mode) cc_capacity in
          {
            variant;
            mode;
            outcome =
              Gb_attack.Runner.run ?config ~audit ~seed ~mode ~secret program;
          })
        Gb_core.Mitigation.all_modes)
    (attack_programs ~secret)

let poc_verdicts_equal a b =
  let key r =
    ( r.variant,
      r.mode,
      Gb_attack.Runner.succeeded r.outcome,
      match r.outcome.Gb_attack.Runner.result.Gb_system.Processor.audit with
      | Some s -> s.Gb_cache.Audit.false_negatives
      | None -> -1 )
  in
  List.map key a = List.map key b

let e2_figure4 ?(audit = false) () =
  let items =
    List.map
      (fun (w : Gb_workloads.Polybench.t) ->
        (w.Gb_workloads.Polybench.name, w.Gb_workloads.Polybench.program))
      Gb_workloads.Polybench.all
    @ attack_programs ~secret:default_secret
  in
  List.map
    (fun (name, program) -> measure_program ~audit ~attrib:true ~name program)
    items

let e4_matmul_ablation ?(audit = false) () =
  let w = Gb_workloads.Polybench.matmul_ptr in
  measure_program ~audit ~name:w.Gb_workloads.Polybench.name
    w.Gb_workloads.Polybench.program

let e5_hot_candidates = [ 7; 66; 71; 200 ]

let e5_hit_miss () = Gb_attack.Timing.measure ~hot:e5_hot_candidates ()

let e7_translation_channel ?(secret = "K") () =
  List.map
    (fun mode -> (mode, Gb_attack.Translation_channel.run ~mode ~secret ()))
    Gb_core.Mitigation.all_modes

type churn_row = {
  c_name : string;
  c_guest_insns : int64;
  c_translations : int;
  c_tiny_translations : int;
  c_tiny_evictions : int;
  c_arch_equal : bool;
}

let per_1k n insns =
  if Int64.equal insns 0L then 0.
  else 1000. *. float_of_int n /. Int64.to_float insns

let e8_tiny_capacity = 192

let e8_eviction () =
  let mode = Gb_core.Mitigation.Unsafe in
  List.map
    (fun (w : Gb_workloads.Polybench.t) ->
      let program =
        Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program
      in
      let run config = Gb_system.Processor.run_program ~config program in
      let full = run (Gb_system.Processor.config_for mode) in
      let tiny = run (config_capped mode e8_tiny_capacity) in
      {
        c_name = w.Gb_workloads.Polybench.name;
        c_guest_insns = full.Gb_system.Processor.guest_insns;
        c_translations = full.Gb_system.Processor.translations;
        c_tiny_translations = tiny.Gb_system.Processor.translations;
        c_tiny_evictions = tiny.Gb_system.Processor.cc_evictions;
        c_arch_equal =
          full.Gb_system.Processor.exit_code
            = tiny.Gb_system.Processor.exit_code
          && full.Gb_system.Processor.output = tiny.Gb_system.Processor.output;
      })
    Gb_workloads.Polybench.all

(* --- E9: static verification cross-check -------------------------------- *)

type verify_row = {
  v_name : string;
  v_mode : Gb_core.Mitigation.mode;
  v_checked : int;
  v_violations : int;
  v_rejections : int;
  v_violation_pcs : int list;
  v_dependent_pcs : int list;
  v_uncovered : int list;
}

type scan_row = {
  s_name : string;
  s_report : Gb_verify.Scanner.report;
  s_flagged : int list;
  s_score : Gb_verify.Scanner.score;
}

type e9 = {
  e9_attacks : verify_row list;
  e9_workloads : verify_row list;
  e9_scans : scan_row list;
}

(* [config_for mode] with the install-time verifier attached report-only:
   enforcement would refence the very translations whose transient
   behaviour the audit must observe, so the cross-check runs the verifier
   as a pure observer. *)
let config_verified mode =
  let config = Gb_system.Processor.config_for mode in
  {
    config with
    Gb_system.Processor.engine =
      {
        config.Gb_system.Processor.engine with
        Gb_dbt.Engine.verify = Gb_dbt.Engine.Verify_report;
      };
  }

(* One verified run; returns the row plus the audit (for the Unsafe run's
   flagged-pc ground truth). [v_uncovered] is the heart of the
   cross-check: audited dependent transient pcs the verifier did NOT
   flag — a static false negative, expected empty always. *)
let verified_run ?(audit = false) ~name mode asm =
  let proc =
    Gb_system.Processor.create ~config:(config_verified mode) ~audit asm
  in
  let _ = Gb_system.Processor.run proc in
  let engine = Gb_system.Processor.engine proc in
  let es = Gb_dbt.Engine.stats engine in
  let violation_pcs =
    List.sort_uniq compare
      (List.map
         (fun (_, v) -> v.Gb_verify.Verifier.v_pc)
         (Gb_dbt.Engine.verify_log engine))
  in
  let a = Gb_system.Processor.audit proc in
  let dependent_pcs =
    match a with Some a -> Gb_cache.Audit.dependent_pcs a | None -> []
  in
  ( {
      v_name = name;
      v_mode = mode;
      v_checked = es.Gb_dbt.Engine.verify_checked;
      v_violations = es.Gb_dbt.Engine.verify_violations;
      v_rejections = es.Gb_dbt.Engine.verify_rejections;
      v_violation_pcs = violation_pcs;
      v_dependent_pcs = dependent_pcs;
      v_uncovered =
        List.filter (fun pc -> not (List.mem pc violation_pcs)) dependent_pcs;
    },
    a )

let e9_workload_modes =
  [
    Gb_core.Mitigation.Fine_grained;
    Gb_core.Mitigation.Fence_on_detect;
    Gb_core.Mitigation.Min_cut;
  ]

let e9_verify ?(secret = default_secret) () =
  let attacks =
    List.map
      (fun (name, program) ->
        (name, Gb_kernelc.Compile.assemble program))
      (attack_programs ~secret)
  in
  let attack_rows, scans =
    List.fold_left
      (fun (rows, scans) (name, asm) ->
        let flagged = ref [] in
        let rows =
          rows
          @ List.map
              (fun mode ->
                let row, audit = verified_run ~audit:true ~name mode asm in
                (* ground truth for the scanner: what the runtime detector
                   flagged when speculation ran unconstrained *)
                (match (mode, audit) with
                | Gb_core.Mitigation.Unsafe, Some a ->
                  flagged := Gb_cache.Audit.flagged_pc_list a
                | _ -> ());
                row)
              Gb_core.Mitigation.all_modes
        in
        let report = Gb_verify.Scanner.scan asm in
        let scan =
          {
            s_name = name;
            s_report = report;
            s_flagged = !flagged;
            s_score = Gb_verify.Scanner.score report ~flagged:!flagged;
          }
        in
        (rows, scans @ [ scan ]))
      ([], []) attacks
  in
  let workload_rows =
    List.concat_map
      (fun (w : Gb_workloads.Polybench.t) ->
        let asm =
          Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program
        in
        List.map
          (fun mode ->
            fst
              (verified_run ~name:w.Gb_workloads.Polybench.name mode asm))
          e9_workload_modes)
      Gb_workloads.Polybench.all
  in
  { e9_attacks = attack_rows; e9_workloads = workload_rows; e9_scans = scans }

let geomean_slowdown rows ~mode =
  Gb_util.Stats.geomean (List.map (fun mc -> slowdown mc ~mode) rows)
