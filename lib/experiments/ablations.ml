type row = {
  param : string;
  value : string;
  unsafe_cycles : int64;
  no_spec_slowdown : float;
  v1_leaks : bool;
  v4_leaks : bool;
}

let ablation_secret = "GHOSTBUS"

let reference_kernel ~name () =
  match Gb_workloads.Polybench.by_name name with
  | Some w -> Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program
  | None -> assert false

(* Measure one configuration point: kernel cycles with and without
   speculation, and whether the two attacks still leak. *)
let measure ~kernel_name ~param ~value ~configure =
  let config_for mode =
    configure (Gb_system.Processor.config_for mode)
  in
  let kernel = reference_kernel ~name:kernel_name () in
  let unsafe_cfg = config_for Gb_core.Mitigation.Unsafe in
  let unsafe = Gb_system.Processor.run_program ~config:unsafe_cfg kernel in
  let no_spec =
    Gb_system.Processor.run_program
      ~config:(config_for Gb_core.Mitigation.No_speculation)
      kernel
  in
  let attack variant =
    let program =
      match variant with
      | `V1 -> Gb_attack.Spectre_v1.program ~secret:ablation_secret ()
      | `V4 -> Gb_attack.Spectre_v4.program ~secret:ablation_secret ()
    in
    Gb_attack.Runner.succeeded
      (Gb_attack.Runner.run ~config:unsafe_cfg ~mode:Gb_core.Mitigation.Unsafe
         ~secret:ablation_secret program)
  in
  {
    param;
    value;
    unsafe_cycles = unsafe.Gb_system.Processor.cycles;
    no_spec_slowdown =
      Int64.to_float no_spec.Gb_system.Processor.cycles
      /. Int64.to_float unsafe.Gb_system.Processor.cycles;
    v1_leaks = attack `V1;
    v4_leaks = attack `V4;
  }

let with_engine config f =
  { config with
    Gb_system.Processor.engine = f config.Gb_system.Processor.engine }

let issue_width () =
  List.map
    (fun (width, mem_slots, mul_slots) ->
      measure ~kernel_name:"gemm" ~param:"issue-width" ~value:(string_of_int width)
        ~configure:(fun config ->
          with_engine config (fun e ->
              {
                e with
                Gb_dbt.Engine.resources =
                  { Gb_dbt.Sched.width; mem_slots; mul_slots; branch_slots = 1 };
              })))
    [ (2, 1, 1); (4, 1, 1); (8, 2, 2) ]

(* the machine's MCB size is the one knob: the processor gives a
   speculating translator one tag per entry *)
let mcb_size () =
  List.map
    (fun entries ->
      measure ~kernel_name:"gemm" ~param:"mcb-entries"
        ~value:(string_of_int entries) ~configure:(fun config ->
          {
            config with
            Gb_system.Processor.machine =
              {
                config.Gb_system.Processor.machine with
                Gb_vliw.Machine.mcb_entries = entries;
              };
          }))
    [ 0; 2; 8; 16 ]

let hot_threshold () =
  List.map
    (fun threshold ->
      measure ~kernel_name:"gemm" ~param:"hot-threshold" ~value:(string_of_int threshold)
        ~configure:(fun config ->
          with_engine config (fun e ->
              { e with Gb_dbt.Engine.hot_threshold = threshold })))
    [ 8; 24; 64; 256 ]

let unroll_limit () =
  List.map
    (fun visits ->
      measure ~kernel_name:"gemm" ~param:"unroll-limit" ~value:(string_of_int visits)
        ~configure:(fun config ->
          with_engine config (fun e ->
              {
                e with
                Gb_dbt.Engine.trace_cfg =
                  {
                    e.Gb_dbt.Engine.trace_cfg with
                    Gb_dbt.Trace_builder.max_visits = visits;
                  };
              })))
    [ 1; 2; 4; 8 ]

let cache_size () =
  List.map
    (fun kib ->
      measure ~kernel_name:"gemm" ~param:"l1d-kib" ~value:(string_of_int kib)
        ~configure:(fun config ->
          {
            config with
            Gb_system.Processor.hier =
              {
                config.Gb_system.Processor.hier with
                Gb_cache.Hierarchy.cache =
                  {
                    Gb_cache.Cache.size_bytes = kib * 1024;
                    ways = 8;
                    line_bytes = 64;
                  };
              };
          }))
    [ 16; 64; 256 ]

let optimizer_cse () =
  List.map
    (fun enabled ->
      measure ~kernel_name:"gemm" ~param:"cse-folding" ~value:(if enabled then "on" else "off")
        ~configure:(fun config ->
          with_engine config (fun e ->
              {
                e with
                Gb_dbt.Engine.opt_override =
                  Some
                    {
                      (Gb_core.Mitigation.opt_of_mode e.Gb_dbt.Engine.mode) with
                      Gb_ir.Opt_config.cse = enabled;
                    };
              })))
    [ true; false ]

let with_adaptive config enabled =
  with_engine config (fun e -> { e with Gb_dbt.Engine.adaptive_despec = enabled })

let adaptive_despec () =
  List.map
    (fun enabled ->
      measure ~kernel_name:"nussinov" ~param:"adaptive-despec"
        ~value:(if enabled then "on" else "off")
        ~configure:(fun config -> with_adaptive config enabled))
    [ false; true ]

let all () =
  List.concat
    [
      optimizer_cse ();
      adaptive_despec ();
      issue_width ();
      mcb_size ();
      hot_threshold ();
      unroll_limit ();
      cache_size ();
    ]
