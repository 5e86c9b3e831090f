(* Command-line interface to the GhostBusters reproduction.

     ghostbusters list                        workloads and attack variants
     ghostbusters run gemm --mode unsafe     run a workload, print stats
     ghostbusters attack v1 --mode unsafe    run a Spectre PoC
     ghostbusters trace gemm --mode unsafe   dump the hot translated trace
     ghostbusters explain v1|v4              poisoning analysis of Figs 1-2
     ghostbusters scan v1                    static gadget scan of a binary
     ghostbusters diff gemm --inject evict   differential oracle run
     ghostbusters profile gemm --mode fence  cycle-attribution ledger
     ghostbusters profile diff v1 --mode fence --mode unsafe
     ghostbusters perf record|compare|report perf-trajectory manifests *)

open Cmdliner

let mode_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Gb_core.Mitigation.mode_of_string s)
  in
  let print ppf m = Format.fprintf ppf "%s" (Gb_core.Mitigation.mode_name m) in
  Arg.conv (parse, print)

let mode_arg =
  Arg.(
    value
    & opt mode_conv Gb_core.Mitigation.Unsafe
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:
          "Mitigation mode: unsafe, fine-grained, fence-on-detect, \
           min-cut or no-speculation.")

let secret_arg =
  Arg.(
    value
    & opt string Gb_experiments.Experiments.default_secret
    & info [ "s"; "secret" ] ~docv:"SECRET" ~doc:"Secret string to exfiltrate.")

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see $(b,list)).")

let print_result (r : Gb_system.Processor.result) =
  Printf.printf "exit code        %d\n" r.Gb_system.Processor.exit_code;
  Printf.printf "cycles           %Ld\n" r.Gb_system.Processor.cycles;
  Printf.printf "interp insns     %Ld\n" r.Gb_system.Processor.interp_insns;
  Printf.printf "trace runs       %Ld\n" r.Gb_system.Processor.trace_runs;
  Printf.printf "bundles          %Ld\n" r.Gb_system.Processor.bundles;
  Printf.printf "side exits       %Ld\n" r.Gb_system.Processor.side_exits;
  Printf.printf "rollbacks        %Ld\n" r.Gb_system.Processor.rollbacks;
  Printf.printf "stall cycles     %Ld\n" r.Gb_system.Processor.stall_cycles;
  Printf.printf "translations     %d\n" r.Gb_system.Processor.translations;
  Printf.printf "dispatch exits   %Ld\n" r.Gb_system.Processor.dispatch_exits;
  if r.Gb_system.Processor.cc_evictions > 0 then
    Printf.printf "cc evictions     %d\n" r.Gb_system.Processor.cc_evictions;
  Printf.printf "spec loads       %d\n" r.Gb_system.Processor.spec_loads;
  Printf.printf "patterns         %d\n" r.Gb_system.Processor.patterns_found;
  Printf.printf "constrained      %d\n" r.Gb_system.Processor.loads_constrained;
  Printf.printf "fences           %d\n" r.Gb_system.Processor.fences_inserted;
  if r.Gb_system.Processor.verify_checked > 0 then
    Printf.printf "verifier         %d checked, %d violation(s), %d fenced\n"
      r.Gb_system.Processor.verify_checked
      r.Gb_system.Processor.verify_violations
      r.Gb_system.Processor.verify_rejections;
  if r.Gb_system.Processor.output <> "" then
    Printf.printf "output           %S\n" r.Gb_system.Processor.output

let print_verify_log ?(oc = stdout) = function
  | [] -> ()
  | log ->
    Printf.fprintf oc "\nVerifier violations:\n";
    List.iter
      (fun (entry, v) ->
        Printf.fprintf oc "  region 0x%x: %-16s pc 0x%x  op %d  bundle %d%s\n"
          entry
          (Gb_verify.Verifier.kind_name v.Gb_verify.Verifier.v_kind)
          v.Gb_verify.Verifier.v_pc v.Gb_verify.Verifier.v_id
          v.Gb_verify.Verifier.v_bundle
          (match v.Gb_verify.Verifier.v_origins with
          | [] -> ""
          | os ->
            "  from "
            ^ String.concat ", " (List.map (Printf.sprintf "0x%x") os)))
      log

(* design-space knobs shared by run/attack *)
let width_arg =
  Arg.(value & opt (some int) None
       & info [ "width" ] ~docv:"N" ~doc:"VLIW issue width.")

let mcb_arg =
  Arg.(value & opt (some int) None
       & info [ "mcb" ] ~docv:"N" ~doc:"MCB entries (0 disables memory speculation).")

let hot_arg =
  Arg.(value & opt (some int) None
       & info [ "hot" ] ~docv:"N" ~doc:"Hot threshold before trace translation.")

let unroll_arg =
  Arg.(value & opt (some int) None
       & info [ "unroll" ] ~docv:"N" ~doc:"Trace-constructor revisit limit.")

let cache_kib_arg =
  Arg.(value & opt (some int) None
       & info [ "cache-kib" ] ~docv:"KIB" ~doc:"L1D capacity in KiB.")

let cc_capacity_arg =
  Arg.(value & opt (some int) None
       & info [ "cc-capacity" ] ~docv:"BUNDLES"
           ~doc:"Code-cache capacity budget in VLIW bundles (default 65536; \
                 small values force evictions).")

let verify_flag =
  Arg.(value & flag
       & info [ "verify-translations" ]
           ~doc:"Verify every translation after scheduling: a taint \
                 dataflow over the emitted VLIW bundles re-derives which \
                 loads execute speculatively and flags memory accesses \
                 with tainted addresses. A violating translation is kept \
                 out of the code cache and retranslated with speculation \
                 fenced; violations are printed after the run.")

let build_config mode width mcb hot unroll cache_kib cc_capacity verify =
  let config = Gb_system.Processor.config_for mode in
  let engine = config.Gb_system.Processor.engine in
  let resources =
    match width with
    | None -> engine.Gb_dbt.Engine.resources
    | Some w ->
      { Gb_dbt.Sched.width = w; mem_slots = max 1 (w / 4);
        mul_slots = max 1 (w / 4); branch_slots = 1 }
  in
  let trace_cfg =
    match unroll with
    | None -> engine.Gb_dbt.Engine.trace_cfg
    | Some visits ->
      { engine.Gb_dbt.Engine.trace_cfg with Gb_dbt.Trace_builder.max_visits = visits }
  in
  let cache =
    {
      engine.Gb_dbt.Engine.cache with
      Gb_dbt.Code_cache.capacity =
        Option.value
          ~default:engine.Gb_dbt.Engine.cache.Gb_dbt.Code_cache.capacity
          cc_capacity;
    }
  in
  let engine =
    { engine with
      Gb_dbt.Engine.resources; trace_cfg; cache;
      hot_threshold =
        Option.value ~default:engine.Gb_dbt.Engine.hot_threshold hot;
      verify =
        (if verify then Gb_dbt.Engine.Verify_enforce
         else Gb_dbt.Engine.Verify_off) }
  in
  let hier =
    match cache_kib with
    | None -> config.Gb_system.Processor.hier
    | Some kib ->
      { config.Gb_system.Processor.hier with
        Gb_cache.Hierarchy.cache =
          { Gb_cache.Cache.size_bytes = kib * 1024; ways = 8; line_bytes = 64 } }
  in
  (* the machine's MCB size is the one MCB knob: the processor gives the
     translator one tag per entry *)
  let machine =
    match mcb with
    | None -> config.Gb_system.Processor.machine
    | Some mcb_entries ->
      { config.Gb_system.Processor.machine with Gb_vliw.Machine.mcb_entries }
  in
  let config = { config with Gb_system.Processor.engine; hier; machine } in
  (* a knob out of range is a user error, reported before any run *)
  match Gb_system.Processor.validate config with
  | Ok () -> Ok config
  | Error (knob, msg) ->
    let flag =
      match knob with
      | Gb_system.Processor.Issue_width -> "--width"
      | Mcb_entries -> "--mcb"
      | L1d_geometry -> "--cache-kib"
      | Code_cache_capacity -> "--cc-capacity"
      | Hot_threshold -> "--hot"
      | Unroll_limit -> "--unroll"
    in
    Error (`Msg (Printf.sprintf "%s: %s" flag msg))

let find_workload name =
  match Gb_workloads.Polybench.by_name name with
  | Some w -> Ok w
  | None -> Error (`Msg (Printf.sprintf "unknown workload %S; try 'list'" name))

(* A guest binary by name: an attack variant or a workload (used by the
   commands that operate on the binary itself, not on a run). *)
let find_program name =
  match name with
  | "v1" ->
    Ok
      (Gb_kernelc.Compile.assemble
         (Gb_attack.Spectre_v1.program
            ~secret:Gb_experiments.Experiments.default_secret ()))
  | "v4" ->
    Ok
      (Gb_kernelc.Compile.assemble
         (Gb_attack.Spectre_v4.program
            ~secret:Gb_experiments.Experiments.default_secret ()))
  | name ->
    Result.map
      (fun (w : Gb_workloads.Polybench.t) ->
        Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program)
      (find_workload name)

(* --- observability flags shared by run/attack --------------------------- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of the run's events and DBT \
           phases to $(docv) (open in chrome://tracing or Perfetto).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the metrics snapshot (counters, gauges, histograms, \
              host-phase timers) as JSON to $(docv).")

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Print host-side DBT phase timings and key counters after the \
              run.")

let audit_flag =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Attach the leakage audit: a shadow cache fed only by \
           architecturally-committed accesses is diffed against the real \
           one at every trace exit; divergent lines are attributed to \
           their guest load and cross-checked against the detector's \
           verdicts. Prints the classification summary after the run.")

let seed_arg =
  Arg.(
    value & opt int64 1L
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Seed for the observability sink's reservoir RNG, so audited \
           and instrumented runs are reproducible bit-for-bit.")

(* An active sink when any observability output was requested (the audit
   publishes metrics and transient-line events, so it counts), noop
   otherwise so unobserved runs pay nothing. *)
let sink_of_flags ~seed trace_out metrics_out profile audit =
  if trace_out <> None || metrics_out <> None || profile || audit then
    Gb_obs.Sink.create ~seed ()
  else Gb_obs.Sink.noop

let print_audit = function
  | None -> ()
  | Some s ->
    Format.printf "@.Leakage audit:@.@[<v>%a@]@." Gb_cache.Audit.pp_summary s

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* Fail on an unwritable output path before spending time on the
   simulation; the successful open leaves an empty file that the final
   write overwrites. *)
let check_outputs paths =
  let writable acc = function
    | None -> acc
    | Some path ->
      Result.bind acc (fun () ->
          match open_out path with
          | oc ->
            close_out oc;
            Ok ()
          | exception Sys_error e -> Error (`Msg e))
  in
  List.fold_left writable (Ok ()) paths

(* Write the trace and metrics files and, with [profile], print the phase
   and counter tables on [oc]: stderr when stdout carries a JSON
   document. *)
let emit_observability ?(oc = stdout) obs ~trace_out ~metrics_out ~profile =
  Option.iter
    (fun path ->
      write_file path (Gb_util.Json.to_string (Gb_obs.Sink.trace_json obs)))
    trace_out;
  Option.iter
    (fun path ->
      write_file path
        (Gb_util.Json.to_string_pretty (Gb_obs.Sink.metrics_json obs)))
    metrics_out;
  if profile then begin
    let totals = Gb_obs.Sink.timer_totals obs in
    if totals <> [] then begin
      Printf.fprintf oc "\nDBT host phases (wall clock):\n";
      output_string oc
      @@ Gb_util.Table.render
        ~header:[ "phase"; "calls"; "total us"; "us/call" ]
        ~rows:
          (List.map
             (fun { Gb_obs.Timer.t_phase; t_calls; t_total_us } ->
               [
                 t_phase;
                 string_of_int t_calls;
                 Printf.sprintf "%.1f" t_total_us;
                 Printf.sprintf "%.1f" (t_total_us /. float_of_int t_calls);
               ])
             totals)
    end;
    match Gb_obs.Sink.metrics obs with
    | None -> ()
    | Some m ->
      Printf.fprintf oc "\nKey counters:\n";
      let counters =
        [
          "translate.translations"; "translate.first_pass";
          "translate.failures"; "translate.retranslations";
          "translate.despeculations"; "translate.lowerings_reused";
          "translate.blocks_reused"; "mitigation.patterns_found";
          "mitigation.loads_constrained"; "mitigation.fences_inserted";
          "vliw.trace_runs"; "vliw.side_exits"; "vliw.rollbacks";
          "vliw.mcb_conflicts"; "cache.read_misses"; "cache.write_misses";
          "code_cache.evictions"; "processor.dispatch_exits";
        ]
      in
      output_string oc
      @@ Gb_util.Table.render ~header:[ "counter"; "value" ]
        ~rows:
          (List.map
             (fun name ->
               [ name; string_of_int (Gb_obs.Metrics.counter_value m name) ])
             counters)
  end

(* --- list --------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "Workloads (Polybench, integer ports):\n";
    List.iter
      (fun (w : Gb_workloads.Polybench.t) ->
        Printf.printf "  %-12s %s\n" w.Gb_workloads.Polybench.name
          w.Gb_workloads.Polybench.description)
      Gb_workloads.Polybench.all;
    let p = Gb_workloads.Polybench.matmul_ptr in
    Printf.printf "  %-12s %s\n" p.Gb_workloads.Polybench.name
      p.Gb_workloads.Polybench.description;
    Printf.printf "\nAttack variants: v1 (trace speculation), v4 (MCB)\n";
    Printf.printf "Modes: %s\n"
      (String.concat ", "
         (List.map Gb_core.Mitigation.mode_name Gb_core.Mitigation.all_modes))
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads, attacks and modes")
    Term.(const run $ const ())

(* --- run ---------------------------------------------------------------- *)

let report_flag =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:"Print the detailed execution report (tiers, IPC, cache, hottest regions).")

let run_json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let run_cmd =
  let run name mode report json width mcb hot unroll cache_kib cc_capacity
      verify trace_out metrics_out profile audit seed =
    match
      Result.bind (find_workload name) (fun w ->
          Result.bind
            (build_config mode width mcb hot unroll cache_kib cc_capacity
               verify)
            (fun config ->
              Result.map
                (fun () -> (w, config))
                (check_outputs [ trace_out; metrics_out ])))
    with
    | Error e -> Error e
    | Ok (w, config) ->
      let obs = sink_of_flags ~seed trace_out metrics_out profile audit in
      let proc =
        Gb_system.Processor.create ~config ~obs ~audit
          (Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program)
      in
      let r = Gb_system.Processor.run proc in
      (* under --json stdout carries exactly one JSON document: the audit
         joins it as a key, the verifier log and the profile tables go to
         stderr *)
      let oc = if json then stderr else stdout in
      if json then
        print_endline
          (Gb_util.Json.to_string_pretty
             (match
                ( Gb_system.Report.to_json (Gb_system.Report.of_processor proc r),
                  r.Gb_system.Processor.audit )
              with
             | Gb_util.Json.Obj fields, Some a ->
               Gb_util.Json.Obj
                 (fields @ [ ("audit", Gb_cache.Audit.summary_to_json a) ])
             | j, _ -> j))
      else if report then
        Format.printf "%s under %s@.%a" name
          (Gb_core.Mitigation.mode_name mode)
          (Gb_system.Report.pp ?max_regions:None)
          (Gb_system.Report.of_processor proc r)
      else begin
        Printf.printf "%s under %s\n" name (Gb_core.Mitigation.mode_name mode);
        print_result r
      end;
      if not json then print_audit r.Gb_system.Processor.audit;
      if verify then
        print_verify_log ~oc
          (Gb_dbt.Engine.verify_log (Gb_system.Processor.engine proc));
      emit_observability ~oc obs ~trace_out ~metrics_out ~profile;
      Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload on the DBT processor")
    Term.(
      term_result
        (const run $ workload_arg $ mode_arg $ report_flag $ run_json_flag
        $ width_arg $ mcb_arg $ hot_arg $ unroll_arg $ cache_kib_arg
        $ cc_capacity_arg $ verify_flag $ trace_out_arg
        $ metrics_out_arg $ profile_flag $ audit_flag $ seed_arg))

(* --- attack ------------------------------------------------------------- *)

let variant_arg =
  Arg.(
    required
    & pos 0 (some (enum [ ("v1", `V1); ("v4", `V4) ])) None
    & info [] ~docv:"VARIANT" ~doc:"Spectre variant: v1 or v4.")

let attack_cmd =
  let run variant mode secret width mcb hot unroll cache_kib cc_capacity
      verify trace_out metrics_out profile audit seed =
    match
      Result.bind
        (build_config mode width mcb hot unroll cache_kib cc_capacity verify)
        (fun config ->
          Result.map (fun () -> config) (check_outputs [ trace_out; metrics_out ]))
    with
    | Error e -> Error e
    | Ok config ->
      let program =
        match variant with
        | `V1 -> Gb_attack.Spectre_v1.program ~secret ()
        | `V4 -> Gb_attack.Spectre_v4.program ~secret ()
      in
      let obs = sink_of_flags ~seed trace_out metrics_out profile audit in
      let o =
        Gb_attack.Runner.run ~config ~obs ~audit ~seed ~mode ~secret program
      in
      Printf.printf "%s\n" (Format.asprintf "%a" Gb_attack.Runner.pp_outcome o);
      print_result o.Gb_attack.Runner.result;
      print_audit o.Gb_attack.Runner.result.Gb_system.Processor.audit;
      if verify then print_verify_log o.Gb_attack.Runner.verify_log;
      emit_observability obs ~trace_out ~metrics_out ~profile;
      Ok ()
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run a Spectre proof-of-concept attack")
    Term.(
      term_result
        (const run $ variant_arg $ mode_arg $ secret_arg $ width_arg $ mcb_arg
        $ hot_arg $ unroll_arg $ cache_kib_arg $ cc_capacity_arg
        $ verify_flag $ trace_out_arg $ metrics_out_arg
        $ profile_flag $ audit_flag $ seed_arg))

(* --- trace -------------------------------------------------------------- *)

let trace_dot_flag =
  Arg.(
    value & flag
    & info [ "dot" ]
        ~doc:
          "Instead of the VLIW schedules, emit a Graphviz rendering of each \
           hot trace's data-flow graph with the poisoning analysis overlaid \
           (poisoned nodes and detected Spectre patterns highlighted).")

let trace_cmd =
  let run name mode dot =
    match find_workload name with
    | Error e -> Error e
    | Ok w ->
      let program =
        Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program
      in
      let proc =
        Gb_system.Processor.create
          ~config:(Gb_system.Processor.config_for mode)
          program
      in
      let _ = Gb_system.Processor.run proc in
      let engine = Gb_system.Processor.engine proc in
      if dot then begin
        (* Rebuild each hot trace at IR level from the recorded branch
           profile (the same inputs the engine translated from) and render
           the DFG the poisoning analysis saw, annotations included. *)
        let traces =
          List.filter
            (fun r -> r.Gb_dbt.Engine.r_tier = `Trace)
            (Gb_dbt.Engine.regions engine)
        in
        List.iter
          (fun r ->
            let entry = r.Gb_dbt.Engine.r_entry in
            let gtrace =
              Gb_dbt.Trace_builder.build
                (Gb_dbt.Engine.config engine).Gb_dbt.Engine.trace_cfg
                ~mem:(Gb_system.Processor.mem proc)
                ~profile:(Gb_dbt.Engine.branch_profile engine)
                ~entry
            in
            let g =
              Gb_ir.Build.build ~opt:Gb_ir.Opt_config.aggressive
                ~lat:Gb_ir.Latency.default gtrace
            in
            let { Gb_core.Poison.poisoned; patterns } =
              Gb_core.Poison.analyze g
            in
            Printf.printf "// trace at 0x%x (%d runs)\n" entry
              r.Gb_dbt.Engine.r_runs;
            print_string (Gb_ir.Dot.to_string ~poisoned ~patterns g))
          traces;
        Printf.printf "// %d hot trace(s)\n" (List.length traces)
      end
      else begin
        let found = ref 0 in
        (* dump every translated trace, hottest first is not tracked; dump
           in address order *)
        let rec scan pc limit =
          if pc < limit then begin
            (match Gb_dbt.Engine.lookup engine pc with
            | Some trace ->
              incr found;
              Format.printf "%a@." Gb_vliw.Vinsn.pp_trace trace
            | None -> ());
            scan (pc + 4) limit
          end
        in
        scan program.Gb_riscv.Asm.base
          (program.Gb_riscv.Asm.base + Bytes.length program.Gb_riscv.Asm.image);
        Printf.printf "%d translated trace(s)\n" !found
      end;
      Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload and dump its translated VLIW traces (or, with \
          $(b,--dot), the poisoned data-flow graphs behind them)")
    Term.(term_result (const run $ workload_arg $ mode_arg $ trace_dot_flag))

(* --- explain ------------------------------------------------------------ *)

let dot_flag =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit a Graphviz rendering of the poisoned data-flow graph.")

let explain_cmd =
  let run variant dot =
    (* Build the attack's hot loop as the DBT engine would see it, and dump
       the poisoning analysis (the executable version of Figure 3). *)
    let secret = "S" in
    let program =
      match variant with
      | `V1 -> Gb_attack.Spectre_v1.program ~secret ()
      | `V4 -> Gb_attack.Spectre_v4.program ~secret ()
    in
    let asm = Gb_kernelc.Compile.assemble program in
    (* run under fine-grained so the engine records where patterns fire *)
    let proc =
      Gb_system.Processor.create
        ~config:(Gb_system.Processor.config_for Gb_core.Mitigation.Fine_grained)
        asm
    in
    let _ = Gb_system.Processor.run proc in
    let engine = Gb_system.Processor.engine proc in
    let shown = ref 0 in
    let rec scan pc limit =
      if pc < limit && !shown < 2 then begin
        (match Gb_dbt.Engine.lookup engine pc with
        | Some trace
          when trace.Gb_vliw.Vinsn.meta.Gb_vliw.Vinsn.spectre_patterns > 0 ->
          (* rebuild the same trace at IR level, with the aggressive
             optimizer, and show what the analysis sees before mitigation *)
          let gtrace =
            Gb_dbt.Trace_builder.build Gb_dbt.Trace_builder.default_config
              ~mem:(Gb_system.Processor.mem proc)
              ~profile:(Gb_dbt.Engine.branch_profile engine)
              ~entry:pc
          in
          let g =
            Gb_ir.Build.build ~opt:Gb_ir.Opt_config.aggressive
              ~lat:Gb_ir.Latency.default gtrace
          in
          (if dot then begin
             let { Gb_core.Poison.poisoned; patterns } =
               Gb_core.Poison.analyze g
             in
             print_string (Gb_ir.Dot.to_string ~poisoned ~patterns g)
           end
           else
             Format.printf "--- IR block at 0x%x ---@.%a@." pc
               Gb_core.Poison.pp_explain g);
          incr shown
        | Some _ | None -> ());
        scan (pc + 4) limit
      end
    in
    scan asm.Gb_riscv.Asm.base
      (asm.Gb_riscv.Asm.base + Bytes.length asm.Gb_riscv.Asm.image);
    if !shown = 0 then print_endline "no trace with a Spectre pattern found"
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Dump the poisoning analysis of an attack's hot traces (Figure 3, \
          executable)")
    Term.(const run $ variant_arg $ dot_flag)

(* --- disasm ------------------------------------------------------------- *)

let disasm_cmd =
  let run name =
    Result.map (fun program -> print_string (Gb_riscv.Disasm.dump program))
      (find_program name)
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Disassemble a workload's or attack's guest binary")
    Term.(term_result (const run $ workload_arg))

(* --- scan --------------------------------------------------------------- *)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let scan_window_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "window" ] ~docv:"N"
        ~doc:
          "Speculation window in guest instructions: how far past a gadget \
           root (branch or store) the scanner follows dataflow (default \
           64).")

let scan_cmd =
  let run name json window =
    Result.map
      (fun program ->
        let r = Gb_verify.Scanner.scan ?window program in
        if json then
          print_endline
            (Gb_util.Json.to_string_pretty
               (Gb_verify.Scanner.report_to_json r))
        else Format.printf "%a@." Gb_verify.Scanner.pp_report r)
      (find_program name)
  in
  Cmd.v
    (Cmd.info "scan"
       ~doc:
         "Statically scan a guest binary for Spectre gadget candidates \
          (Teapot-style lint): v1 branch/bounded-load/dependent-access \
          chains and v4 store/aliasing-load/dependent-access chains, found \
          by abstract dataflow over the decoded instructions — no \
          execution.")
    Term.(
      term_result (const run $ workload_arg $ json_flag $ scan_window_arg))

(* --- diff --------------------------------------------------------------- *)

let inject_conv =
  let parse s =
    match Gb_system.Inject.parse s with
    | Ok spec -> Ok spec
    | Error e -> Error (`Msg e)
  in
  let print ppf s = Format.fprintf ppf "%s" (Gb_system.Inject.spec_name s) in
  Arg.conv (parse, print)

let inject_arg =
  Arg.(
    value
    & opt (some inject_conv) None
    & info [ "inject" ] ~docv:"KIND[:RATE][,...]"
        ~doc:
          "Arm the fault-injection harness on the DBT side: evict \
           (mid-trace code-cache eviction), mcb (spurious conflict, \
           rollback), translate (transient translation failure, \
           interpreter fallback), decode (decode-cache flush), \
           mcb-suppress (hide real conflicts — unsound by design, the \
           oracle must detect it). Rates default per kind.")

let diff_workload_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD"
        ~doc:
          "v1, v4 or a Polybench kernel (see $(b,list)). Omit to run the \
           whole gate matrix.")

let matrix_modes_arg =
  Arg.(
    value
    & opt (some (list mode_conv)) None
    & info [ "modes" ] ~docv:"MODE,..."
        ~doc:
          "Restrict the gate matrix's attack cells to this comma-separated \
           mode list (e.g. $(b,--modes min-cut,fence)). Kernel cells and \
           the sensitivity control always run. Ignored with a WORKLOAD.")

let report_of_single name mode (r : Gb_diff.Oracle.report) =
  Gb_util.Json.Obj
    [
      ("workload", Gb_util.Json.String name);
      ("mode", Gb_util.Json.String (Gb_core.Mitigation.mode_name mode));
      ("clean", Gb_util.Json.Bool (Gb_diff.Oracle.clean r));
      ( "divergence",
        match r.Gb_diff.Oracle.divergence with
        | Some d ->
          Gb_util.Json.String
            (Format.asprintf "%a" Gb_diff.Oracle.pp_divergence d)
        | None -> Gb_util.Json.Null );
      ( "trap",
        match r.Gb_diff.Oracle.trap with
        | Some m -> Gb_util.Json.String m
        | None -> Gb_util.Json.Null );
      ("syncs", Gb_util.Json.Int r.Gb_diff.Oracle.syncs);
      ("injected", Gb_util.Json.Int r.Gb_diff.Oracle.injected);
      ("recovered", Gb_util.Json.Int r.Gb_diff.Oracle.recovered);
      ( "ref_insns",
        Gb_util.Json.Int (Int64.to_int r.Gb_diff.Oracle.ref_insns) );
    ]

let diff_cmd =
  let run workload mode modes inject seed json trace_out metrics_out profile =
    match check_outputs [ trace_out; metrics_out ] with
    | Error e -> Error e
    | Ok () ->
    let obs = sink_of_flags ~seed trace_out metrics_out profile false in
    let finish result =
      emit_observability
        ~oc:(if json then stderr else stdout)
        obs ~trace_out ~metrics_out ~profile;
      result
    in
    finish
    @@
    match workload with
    | None ->
      (* the full gate matrix: attacks x modes and all kernels, each under
         every inject variant, plus the sensitivity control *)
      let m = Gb_diff.Matrix.run ~obs ~seed ?modes () in
      if json then
        print_endline (Gb_util.Json.to_string_pretty (Gb_diff.Matrix.to_json m))
      else begin
        List.iter
          (fun row ->
            if not row.Gb_diff.Matrix.r_clean then
              Printf.printf "DIVERGED %-20s mode=%-15s inject=%-14s %s\n"
                row.Gb_diff.Matrix.r_workload row.Gb_diff.Matrix.r_mode
                row.Gb_diff.Matrix.r_inject
                (Option.value ~default:"(unrecovered faults)"
                   row.Gb_diff.Matrix.r_divergence))
          (List.filter
             (fun r -> r.Gb_diff.Matrix.r_inject <> "mcb-suppress:1")
             m.Gb_diff.Matrix.rows);
        Format.printf "%a@." Gb_diff.Matrix.pp_summary m
      end;
      if Gb_diff.Matrix.pass m then Ok ()
      else Error (`Msg "differential gate failed")
    | Some name ->
      Result.bind (find_program name) (fun program ->
          let config = Gb_system.Processor.config_for mode in
          let r = Gb_diff.Oracle.run ~config ~obs ?inject ~seed program in
          if json then
            print_endline
              (Gb_util.Json.to_string_pretty (report_of_single name mode r))
          else begin
            Printf.printf "%s under %s%s\n" name
              (Gb_core.Mitigation.mode_name mode)
              (match inject with
              | Some s ->
                Printf.sprintf " (inject %s, seed %Ld)"
                  (Gb_system.Inject.spec_name s) seed
              | None -> "");
            Printf.printf "syncs            %d\n" r.Gb_diff.Oracle.syncs;
            Printf.printf "reference insns  %Ld\n" r.Gb_diff.Oracle.ref_insns;
            if r.Gb_diff.Oracle.injected > 0 then
              Printf.printf "faults           %d injected, %d recovered\n"
                r.Gb_diff.Oracle.injected r.Gb_diff.Oracle.recovered;
            (match r.Gb_diff.Oracle.trap with
            | Some m -> Printf.printf "DBT trap         %s\n" m
            | None -> ());
            match r.Gb_diff.Oracle.divergence with
            | Some d ->
              Format.printf "%a@." Gb_diff.Oracle.pp_divergence d
            | None -> Printf.printf "no divergence\n"
          end;
          if Gb_diff.Oracle.clean r then Ok ()
          else Error (`Msg "differential run not clean"))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Differentially execute a workload (or the whole gate matrix): \
          reference interpreter vs. the full DBT processor, architectural \
          state compared at every trace exit and at program end, \
          optionally under deterministic fault injection. Exits non-zero \
          on any divergence or unrecovered fault.")
    Term.(
      term_result
        (const run $ diff_workload_arg $ mode_arg $ matrix_modes_arg
        $ inject_arg $ seed_arg $ json_flag $ trace_out_arg $ metrics_out_arg
        $ profile_flag))

(* --- profile ------------------------------------------------------------ *)

module At = Gb_obs.Attrib

let cycles_of_units u = float_of_int u /. float_of_int At.scale

let top_arg =
  Arg.(
    value & opt int 20
    & info [ "top" ] ~docv:"N"
        ~doc:
          "Ledger rows (tier x trace x pc x cause) to print, hottest first \
           (0 = all).")

let folded_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "folded-out" ] ~docv:"FILE"
        ~doc:
          "Write the ledger as folded stacks \
           (kernel;tier;trace;pc;cause count) to $(docv) — the input format \
           of flamegraph.pl and speedscope.")

(* One attributed run: a fresh ledger per run, so the conservation
   invariant (checked inside the processor, and again here) is against
   exactly this run's clock. *)
let profiled_run ~seed ~mode name =
  Result.map
    (fun asm ->
      let obs = Gb_obs.Sink.create ~attrib:true ~seed () in
      let r =
        Gb_system.Processor.run_program
          ~config:(Gb_system.Processor.config_for mode)
          ~obs asm
      in
      let a = Option.get (Gb_obs.Sink.attrib obs) in
      (r, a))
    (find_program name)

let conservation_status (r : Gb_system.Processor.result) a =
  match At.check a ~cycles:r.Gb_system.Processor.cycles with
  | Ok () -> "ok"
  | Error msg -> msg

let profile_json ~name ~mode (r : Gb_system.Processor.result) a =
  Gb_util.Json.Obj
    [
      ("workload", Gb_util.Json.String name);
      ("mode", Gb_util.Json.String (Gb_core.Mitigation.mode_name mode));
      ("cycles", Gb_util.Json.Int (Int64.to_int r.Gb_system.Processor.cycles));
      ("conservation", Gb_util.Json.String (conservation_status r a));
      ("attribution", At.to_json a);
    ]

let print_profile ~name ~mode (r : Gb_system.Processor.result) a ~top =
  Printf.printf "%s under %s: %Ld cycles (conservation %s)\n\n" name
    (Gb_core.Mitigation.mode_name mode)
    r.Gb_system.Processor.cycles (conservation_status r a);
  let shares = At.cause_shares a in
  Gb_util.Table.print
    ~header:[ "cause"; "cycles"; "share" ]
    ~rows:
      (List.map
         (fun (cause, units) ->
           [
             At.cause_name cause;
             Printf.sprintf "%.1f" (cycles_of_units units);
             Printf.sprintf "%5.1f%%"
               (100.
               *. Option.value ~default:0.
                    (List.assoc_opt (At.cause_name cause) shares));
           ])
         (At.by_cause a));
  let rows = At.rows a in
  let shown = if top <= 0 then rows else List.filteri (fun i _ -> i < top) rows in
  Printf.printf "\nHottest ledger rows (%d of %d):\n" (List.length shown)
    (List.length rows);
  Gb_util.Table.print
    ~header:[ "tier"; "trace"; "guest pc"; "cause"; "cycles" ]
    ~rows:
      (List.map
         (fun (row : At.row) ->
           [
             At.tier_name row.At.r_tier;
             Printf.sprintf "0x%x" row.At.r_trace;
             Printf.sprintf "0x%x" row.At.r_pc;
             At.cause_name row.At.r_cause;
             Printf.sprintf "%.1f" (cycles_of_units row.At.r_units);
           ])
         shown)

let profile_run_action name mode top json folded_out seed =
  Result.bind (profiled_run ~seed ~mode name) (fun (r, a) ->
      if json then
        print_endline
          (Gb_util.Json.to_string_pretty (profile_json ~name ~mode r a))
      else print_profile ~name ~mode r a ~top;
      Option.iter
        (fun path ->
          let buf = Buffer.create 4096 in
          At.folded a ~kernel:name ~top:0 buf;
          write_file path (Buffer.contents buf))
        folded_out;
      match At.check a ~cycles:r.Gb_system.Processor.cycles with
      | Ok () -> Ok ()
      | Error msg ->
        Error (`Msg ("cycle attribution conservation violated: " ^ msg)))

let diff_modes_arg =
  Arg.(
    value
    & opt_all mode_conv []
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:
          "The two modes to diff, given twice: the first is the slower \
           (mitigated) side, the second the baseline (e.g. $(b,--mode \
           fence --mode unsafe)).")

let profile_diff_action name m1 m2 json seed =
  Result.bind (profiled_run ~seed ~mode:m1 name) (fun (r1, a1) ->
          Result.bind (profiled_run ~seed ~mode:m2 name) (fun (r2, a2) ->
              let c1 = r1.Gb_system.Processor.cycles
              and c2 = r2.Gb_system.Processor.cycles in
              let delta_cycles = Int64.sub c1 c2 in
              let delta_units =
                Int64.mul delta_cycles (Int64.of_int At.scale)
              in
              let by1 = At.by_cause a1 and by2 = At.by_cause a2 in
              let delta c = List.assoc c by1 - List.assoc c by2 in
              (* the mitigation overhead buckets: stalls the fences cost
                 plus the issue slots serialization — generic or forced by
                 min-cut repairs — left empty *)
              let explained =
                delta At.Fence_stall + delta At.Nospec_serialization
                + delta At.Cut_protect
              in
              let explained_share =
                if Int64.compare delta_units 0L > 0 then
                  Some (float_of_int explained /. Int64.to_float delta_units)
                else None
              in
              if json then
                print_endline
                  (Gb_util.Json.to_string_pretty
                     (Gb_util.Json.Obj
                        [
                          ("workload", Gb_util.Json.String name);
                          ( "mode_a",
                            Gb_util.Json.String
                              (Gb_core.Mitigation.mode_name m1) );
                          ( "mode_b",
                            Gb_util.Json.String
                              (Gb_core.Mitigation.mode_name m2) );
                          ("cycles_a", Gb_util.Json.Int (Int64.to_int c1));
                          ("cycles_b", Gb_util.Json.Int (Int64.to_int c2));
                          ( "delta_cycles",
                            Gb_util.Json.Int (Int64.to_int delta_cycles) );
                          ( "conservation_a",
                            Gb_util.Json.String (conservation_status r1 a1) );
                          ( "conservation_b",
                            Gb_util.Json.String (conservation_status r2 a2) );
                          ( "delta_by_cause",
                            Gb_util.Json.Obj
                              (List.map
                                 (fun cause ->
                                   ( At.cause_name cause,
                                     Gb_util.Json.Float
                                       (cycles_of_units (delta cause)) ))
                                 At.all_causes) );
                          ( "explained_share",
                            match explained_share with
                            | Some s -> Gb_util.Json.Float s
                            | None -> Gb_util.Json.Null );
                        ]))
              else begin
                Printf.printf "%s: %s %Ld cycles vs %s %Ld cycles (%+Ld)\n\n"
                  name
                  (Gb_core.Mitigation.mode_name m1)
                  c1
                  (Gb_core.Mitigation.mode_name m2)
                  c2 delta_cycles;
                Gb_util.Table.print
                  ~header:
                    [
                      "cause";
                      Gb_core.Mitigation.mode_name m1;
                      Gb_core.Mitigation.mode_name m2;
                      "delta";
                      "of delta";
                    ]
                  ~rows:
                    (List.map
                       (fun cause ->
                         let d = delta cause in
                         [
                           At.cause_name cause;
                           Printf.sprintf "%.1f"
                             (cycles_of_units (List.assoc cause by1));
                           Printf.sprintf "%.1f"
                             (cycles_of_units (List.assoc cause by2));
                           Printf.sprintf "%+.1f" (cycles_of_units d);
                           (if Int64.compare delta_units 0L > 0 then
                              Printf.sprintf "%5.1f%%"
                                (100. *. float_of_int d
                                /. Int64.to_float delta_units)
                            else "-");
                         ])
                       At.all_causes);
                match explained_share with
                | Some s ->
                  Printf.printf
                    "\n%.1f%% of the slowdown delta is fence-stall + \
                     nospec-serialization + cut-protect\n"
                    (100. *. s)
                | None -> ()
              end;
              Ok ()))

(* [profile WORKLOAD] profiles one run; [profile diff WORKLOAD --mode A
   --mode B] (or two --mode flags on a plain invocation) diffs two. The
   "diff" verb is a positional, not a cmdliner subcommand, so the plain
   form keeps its positional workload. *)
let profile_pos0_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD"
        ~doc:
          "Workload or attack name (see $(b,list)), or the verb $(b,diff) \
           followed by the name.")

let profile_pos1_arg =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name, after the $(b,diff) verb.")

let profile_cmd =
  let run arg0 arg1 modes top json folded_out seed =
    let diff name =
      match modes with
      | [ m1; m2 ] -> profile_diff_action name m1 m2 json seed
      | _ ->
        Error
          (`Msg
            "profile diff needs exactly two --mode flags (slower mode \
             first, e.g. --mode fence --mode unsafe)")
    in
    Result.bind (check_outputs [ folded_out ]) (fun () ->
        match (arg0, arg1) with
        | "diff", Some name -> diff name
        | "diff", None ->
          Error (`Msg "usage: profile diff WORKLOAD --mode A --mode B")
        | _, Some extra ->
          Error (`Msg (Printf.sprintf "unexpected argument %S" extra))
        | name, None -> (
          match modes with
          | [] ->
            profile_run_action name Gb_core.Mitigation.Unsafe top json
              folded_out seed
          | [ mode ] -> profile_run_action name mode top json folded_out seed
          | _ -> diff name))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Cycle-attribution profiler: explain where every simulated cycle \
          of a run went (committed work, fence stalls, serialization, \
          rollbacks, dispatcher exits, interpreter, cache misses), keyed by tier, trace and guest pc. With $(b,diff) (or \
          two $(b,--mode) flags), attribute the cycle delta between two \
          modes cause by cause. See docs/OBSERVABILITY.md \"Cycle \
          attribution\".")
    Term.(
      term_result
        (const run $ profile_pos0_arg $ profile_pos1_arg $ diff_modes_arg
       $ top_arg $ json_flag $ folded_out_arg $ seed_arg))

(* --- perf --------------------------------------------------------------- *)

let manifest_of_path path =
  Result.map_error (fun e -> `Msg e) (Gb_perf.Manifest.read path)

(* --against accepts a trajectory directory (baseline selected by seq or
   --baseline-rev) or a single manifest file *)
let load_baseline ~against ~rev =
  if Sys.file_exists against && Sys.is_directory against then
    match Gb_perf.Baseline.load_dir against with
    | Error e -> Error (`Msg e)
    | Ok manifests -> (
      match Gb_perf.Baseline.select ?rev manifests with
      | Some m -> Ok m
      | None ->
        Error
          (`Msg
            (Printf.sprintf "no baseline%s in %s"
               (match rev with
               | Some r -> Printf.sprintf " with rev %s" r
               | None -> "")
               against)))
  else manifest_of_path against

let perf_out_arg =
  Arg.(
    value
    & opt string "GB_manifest.json"
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Where to write the recorded manifest.")

let seq_arg =
  Arg.(
    value & opt int 0
    & info [ "seq" ] ~docv:"N"
        ~doc:
          "Trajectory sequence number to stamp into the manifest (use \
           $(b,perf compare --against DIR) first; the next free number is \
           one past the highest committed one). 0 = unplaced.")

let against_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "against" ] ~docv:"PATH"
        ~doc:
          "Baseline: a trajectory directory (e.g. $(b,bench/trajectory)) \
           or a single manifest file.")

let manifest_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "manifest" ] ~docv:"FILE"
        ~doc:
          "Manifest to compare (e.g. one written by $(b,perf record)). \
           When omitted, a fresh manifest is recorded first (~10s).")

let baseline_rev_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline-rev" ] ~docv:"REV"
        ~doc:
          "Pin the baseline to the trajectory manifest recorded at this \
           git rev (prefix match) instead of the latest sequence number.")

let report_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report-out" ] ~docv:"FILE"
        ~doc:"Also write the comparison as JSON to $(docv) (CI artifact).")

let record_manifest ~seed ~seq =
  Printf.eprintf "perf: recording manifest (seed %Ld)...\n%!" seed;
  let m = Gb_perf.Collect.collect ~seed () in
  if seq = 0 then m else { m with Gb_perf.Manifest.seq = seq }

(* the manifest to compare: the given file, or a freshly recorded one *)
let current_manifest ~seed = function
  | Some path -> manifest_of_path path
  | None -> Ok (record_manifest ~seed ~seq:0)

let perf_record_cmd =
  let run out seq seed =
    Result.map
      (fun () ->
        let m = record_manifest ~seed ~seq in
        Gb_perf.Manifest.write out m;
        Printf.printf
          "recorded %s: %d metrics, %d verdicts, rev %s, seed %Ld\n" out
          (List.length m.Gb_perf.Manifest.metrics)
          (List.length m.Gb_perf.Manifest.verdicts)
          m.Gb_perf.Manifest.rev m.Gb_perf.Manifest.seed)
      (check_outputs [ Some out ])
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run the experiments (E1-E10) and write a schema-versioned run \
          manifest (per-kernel cycles and slowdowns, attributed cycles, \
          translation rates, counter snapshots, every number of \
          EXPERIMENTS.md's tables and the gate verdicts) — the only \
          machine-readable record of the experiments.")
    Term.(term_result (const run $ perf_out_arg $ seq_arg $ seed_arg))

let perf_compare_cmd =
  let run against manifest rev json report_out seed =
    Result.bind (check_outputs [ report_out ]) (fun () ->
        Result.bind (load_baseline ~against ~rev) (fun baseline ->
            Result.bind (current_manifest ~seed manifest) (fun current ->
                let cmp = Gb_perf.Baseline.compare ~baseline current in
                if json then
                  print_endline
                    (Gb_util.Json.to_string_pretty
                       (Gb_perf.Report.to_json cmp))
                else print_string (Gb_perf.Report.to_ascii cmp);
                Option.iter
                  (fun path ->
                    write_file path
                      (Gb_util.Json.to_string_pretty
                         (Gb_perf.Report.to_json cmp)))
                  report_out;
                if cmp.Gb_perf.Baseline.passed then Ok ()
                else
                  Error
                    (`Msg
                      (Printf.sprintf
                         "perf gate failed: %d regressed cell(s), %d \
                          removed cell(s)"
                         cmp.Gb_perf.Baseline.regressed
                         cmp.Gb_perf.Baseline.removed)))))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare a run manifest against the committed perf trajectory and \
          exit non-zero on any regression verdict (cycles beyond \
          tolerance, audit false negatives, flipped gate verdicts) or lost \
          coverage (a baseline cell the manifest lacks).")
    Term.(
      term_result
        (const run $ against_arg $ manifest_arg $ baseline_rev_arg
        $ json_flag $ report_out_arg $ seed_arg))

let perf_report_cmd =
  let run against manifest rev json seed =
    Result.bind (current_manifest ~seed manifest) (fun current ->
        match against with
        | None ->
          (* no baseline: summarise the manifest itself *)
          if json then
            print_endline
              (Gb_util.Json.to_string_pretty
                 (Gb_perf.Manifest.to_json current))
          else begin
            Printf.printf
              "manifest seq %d, rev %s, seed %Ld, schema v%d\n\
               %d metrics, %d verdicts\n"
              current.Gb_perf.Manifest.seq current.Gb_perf.Manifest.rev
              current.Gb_perf.Manifest.seed
              current.Gb_perf.Manifest.schema_version
              (List.length current.Gb_perf.Manifest.metrics)
              (List.length current.Gb_perf.Manifest.verdicts);
            let failed = Gb_perf.Manifest.failed_verdicts current in
            if failed <> [] then begin
              Printf.printf "failed verdicts:\n";
              List.iter (Printf.printf "  %s\n") failed
            end;
            print_newline ();
            print_string (Gb_perf.Report.experiments_markdown current)
          end;
          Ok ()
        | Some against ->
          Result.map
            (fun baseline ->
              let cmp = Gb_perf.Baseline.compare ~baseline current in
              if json then
                print_endline
                  (Gb_util.Json.to_string_pretty (Gb_perf.Report.to_json cmp))
              else
                print_string
                  (Gb_perf.Report.to_markdown ~max_unchanged:max_int cmp))
            (load_baseline ~against ~rev))
  in
  let against_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "against" ] ~docv:"PATH"
          ~doc:
            "Baseline trajectory directory or manifest file; when given, \
             render the full comparison (markdown) instead of the \
             manifest summary and its experiment tables.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a manifest without gating (always exits 0): its summary \
          and EXPERIMENTS.md's E1-E7 tables, read from its cells; or, with \
          $(b,--against), its comparison against a baseline.")
    Term.(
      term_result
        (const run $ against_opt $ manifest_arg $ baseline_rev_arg
        $ json_flag $ seed_arg))

let perf_cmd =
  Cmd.group
    (Cmd.info "perf"
       ~doc:
         "Performance trajectory: record schema-versioned run manifests, \
          compare them against the committed baseline \
          (bench/trajectory/BENCH_*.json) and render regression reports. \
          See docs/OBSERVABILITY.md \"Performance trajectory\".")
    [ perf_record_cmd; perf_compare_cmd; perf_report_cmd ]

let () =
  let doc =
    "GhostBusters: Spectre attacks and their mitigation on a DBT-based \
     processor (DATE 2020 reproduction)"
  in
  let info = Cmd.info "ghostbusters" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; attack_cmd; trace_cmd; explain_cmd; disasm_cmd;
            scan_cmd; diff_cmd; profile_cmd; perf_cmd ]))
