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
  causes : (string * (string * float) list) list;
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
     against that run's clock) and captures the per-cause shares *)
  let run mode =
    if attrib then begin
      let obs = Gb_obs.Sink.create ~attrib:true () in
      let r = run_workload ~audit ~obs mode program in
      let shares =
        match Gb_obs.Sink.attrib obs with
        | Some a -> Gb_obs.Attrib.cause_shares a
        | None -> []
      in
      (r, (Gb_core.Mitigation.mode_name mode, shares))
    end
    else (run_workload ~audit mode program, (Gb_core.Mitigation.mode_name mode, []))
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
    ?cc_capacity ?(modes = Gb_core.Mitigation.all_modes) () =
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
        modes)
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

let e2_figure4 ?(audit = false) ?(attrib = true) () =
  let items =
    List.map
      (fun (w : Gb_workloads.Polybench.t) ->
        (w.Gb_workloads.Polybench.name, w.Gb_workloads.Polybench.program))
      Gb_workloads.Polybench.all
    @ attack_programs ~secret:default_secret
  in
  List.map
    (fun (name, program) -> measure_program ~audit ~attrib ~name program)
    items

let e3_fence_rows rows =
  List.map
    (fun mc ->
      (mc.w_name, slowdown mc ~mode:Gb_core.Mitigation.Fence_on_detect, mc.patterns))
    rows

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

type chain_row = {
  c_name : string;
  c_guest_insns : int64;
  c_exits_nochain : int64;
  c_exits_chain : int64;
  c_chain_follows : int64;
  c_tiny_exits : int64;  (** dispatch exits with chaining + tiny cache *)
  c_tiny_evictions : int;
  c_cycles_equal : bool;
      (** chaining must not change the simulated cycle count *)
  c_arch_equal : bool;
      (** tiny-cache run produced the same architectural result *)
}

let per_1k exits insns =
  if Int64.equal insns 0L then 0.
  else 1000. *. Int64.to_float exits /. Int64.to_float insns

let chain_reduction r =
  let after = per_1k r.c_exits_chain r.c_guest_insns in
  if after = 0. then infinity
  else per_1k r.c_exits_nochain r.c_guest_insns /. after

let e8_tiny_capacity = 192

let e8_chaining ?(mode = Gb_core.Mitigation.Unsafe) () =
  let chain_cfg ~chain ~capacity =
    let config = config_capped mode capacity in
    let engine = config.Gb_system.Processor.engine in
    {
      config with
      Gb_system.Processor.engine =
        {
          engine with
          Gb_dbt.Engine.cache =
            { engine.Gb_dbt.Engine.cache with Gb_dbt.Code_cache.chain };
        };
    }
  in
  let default_cap = Gb_dbt.Code_cache.default_config.Gb_dbt.Code_cache.capacity in
  List.map
    (fun (w : Gb_workloads.Polybench.t) ->
      let program =
        Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program
      in
      let run config = Gb_system.Processor.run_program ~config program in
      let off = run (chain_cfg ~chain:false ~capacity:default_cap) in
      let on = run (chain_cfg ~chain:true ~capacity:default_cap) in
      let tiny = run (chain_cfg ~chain:true ~capacity:e8_tiny_capacity) in
      {
        c_name = w.Gb_workloads.Polybench.name;
        c_guest_insns = on.Gb_system.Processor.guest_insns;
        c_exits_nochain = off.Gb_system.Processor.dispatch_exits;
        c_exits_chain = on.Gb_system.Processor.dispatch_exits;
        c_chain_follows = on.Gb_system.Processor.chain_follows;
        c_tiny_exits = tiny.Gb_system.Processor.dispatch_exits;
        c_tiny_evictions = tiny.Gb_system.Processor.cc_evictions;
        c_cycles_equal =
          Int64.equal off.Gb_system.Processor.cycles
            on.Gb_system.Processor.cycles;
        c_arch_equal =
          off.Gb_system.Processor.exit_code
            = tiny.Gb_system.Processor.exit_code
          && off.Gb_system.Processor.output = tiny.Gb_system.Processor.output;
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

let e9_verify ?(secret = default_secret)
    ?(modes = Gb_core.Mitigation.all_modes) () =
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
              modes
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
          (List.filter (fun m -> List.mem m modes) e9_workload_modes))
      Gb_workloads.Polybench.all
  in
  { e9_attacks = attack_rows; e9_workloads = workload_rows; e9_scans = scans }

let geomean_slowdown rows ~mode =
  Gb_util.Stats.geomean (List.map (fun mc -> slowdown mc ~mode) rows)

let mode_cycles_json mc =
  let base =
    [
      ("name", Gb_util.Json.String mc.w_name);
      ("unsafe_cycles", Gb_util.Json.Int (Int64.to_int mc.unsafe));
      ("fine_grained", Gb_util.Json.Float (slowdown mc ~mode:Gb_core.Mitigation.Fine_grained));
      ("fence_on_detect", Gb_util.Json.Float (slowdown mc ~mode:Gb_core.Mitigation.Fence_on_detect));
      ("min_cut", Gb_util.Json.Float (slowdown mc ~mode:Gb_core.Mitigation.Min_cut));
      ("no_speculation", Gb_util.Json.Float (slowdown mc ~mode:Gb_core.Mitigation.No_speculation));
      ("patterns", Gb_util.Json.Int mc.patterns);
    ]
  in
  let causes =
    match mc.causes with
    | [] -> []
    | per_mode ->
      [
        ( "cause_shares",
          Gb_util.Json.Obj
            (List.map
               (fun (mode, shares) ->
                 ( mode,
                   Gb_util.Json.Obj
                     (List.map
                        (fun (c, s) -> (c, Gb_util.Json.Float s))
                        shares) ))
               per_mode) );
      ]
  in
  Gb_util.Json.Obj (base @ causes)

let figure4_json rows =
  Gb_util.Json.Obj
    [
      ("experiment", Gb_util.Json.String "figure4");
      ("rows", Gb_util.Json.List (List.map mode_cycles_json rows));
      ( "geomean",
        Gb_util.Json.Obj
          [
            ("fine_grained", Gb_util.Json.Float (geomean_slowdown rows ~mode:Gb_core.Mitigation.Fine_grained));
            ("fence_on_detect", Gb_util.Json.Float (geomean_slowdown rows ~mode:Gb_core.Mitigation.Fence_on_detect));
            ("min_cut", Gb_util.Json.Float (geomean_slowdown rows ~mode:Gb_core.Mitigation.Min_cut));
            ("no_speculation", Gb_util.Json.Float (geomean_slowdown rows ~mode:Gb_core.Mitigation.No_speculation));
          ] );
    ]
