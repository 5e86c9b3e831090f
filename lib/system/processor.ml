type config = {
  mem_size : int;
  hier : Gb_cache.Hierarchy.config;
  machine : Gb_vliw.Machine.config;
  engine : Gb_dbt.Engine.config;
  max_cycles : int;
}

let default_config =
  {
    mem_size = 1 lsl 20;
    hier = Gb_cache.Hierarchy.default_config;
    machine = Gb_vliw.Machine.default_config;
    engine = Gb_dbt.Engine.default_config;
    max_cycles = 4_000_000_000;
  }

let config_for mode =
  {
    default_config with
    engine = { Gb_dbt.Engine.default_config with Gb_dbt.Engine.mode };
  }

type result = {
  exit_code : int;
  cycles : int64;
  interp_insns : int64;
  trace_runs : int64;
  bundles : int64;
  side_exits : int64;
  rollbacks : int64;
  stall_cycles : int64;
  translations : int;
  first_pass_translations : int;
  patterns_found : int;
  loads_constrained : int;
  fences_inserted : int;
  spec_loads : int;
  verify_checked : int;
  verify_violations : int;
  verify_rejections : int;
  dispatch_exits : int64;
  chain_follows : int64;
  guest_insns : int64;
  cc_evictions : int;
  output : string;
  audit : Gb_cache.Audit.summary option;
}

type t = {
  cfg : config;
  mem : Gb_riscv.Mem.t;
  clock : int ref;
  hier : Gb_cache.Hierarchy.t;
  interp : Gb_riscv.Interp.t;
  machine : Gb_vliw.Machine.t;
  engine : Gb_dbt.Engine.t;
  obs : Gb_obs.Sink.t;
  attrib : Gb_obs.Attrib.t option;
      (** the sink's cycle-attribution ledger, cached off the hot loop *)
  audit : Gb_cache.Audit.t option;
  inject : Inject.t option;
  mutable on_trace_exit : region:int -> Gb_vliw.Pipeline.exit_info -> unit;
      (** observer fired once per trace exit with architectural state
          fully committed; the differential oracle hangs its sync
          points here *)
}

type knob =
  | Issue_width
  | Mcb_entries
  | L1d_geometry
  | Code_cache_capacity
  | Hot_threshold
  | Unroll_limit

let validate (config : config) =
  let e = config.engine in
  let r = e.Gb_dbt.Engine.resources in
  let error knob fmt = Printf.ksprintf (fun msg -> Error (knob, msg)) fmt in
  if r.Gb_dbt.Sched.width < 1 then
    error Issue_width "VLIW issue width %d: must be at least 1"
      r.Gb_dbt.Sched.width
  else if
    r.Gb_dbt.Sched.mem_slots < 1 || r.Gb_dbt.Sched.mul_slots < 1
    || r.Gb_dbt.Sched.branch_slots < 1
  then
    error Issue_width
      "issue slots per bundle (%d memory, %d multiplier, %d control): each \
       must be at least 1"
      r.Gb_dbt.Sched.mem_slots r.Gb_dbt.Sched.mul_slots
      r.Gb_dbt.Sched.branch_slots
  else if config.machine.Gb_vliw.Machine.mcb_entries < 0 then
    error Mcb_entries
      "%d MCB entries: must be at least 0 (0 disables memory speculation)"
      config.machine.Gb_vliw.Machine.mcb_entries
  else
    match Gb_cache.Cache.check_config config.hier.Gb_cache.Hierarchy.cache with
    | Error msg -> error L1d_geometry "L1D geometry: %s" msg
    | Ok () ->
      let capacity = e.Gb_dbt.Engine.cache.Gb_dbt.Code_cache.capacity in
      let visits =
        e.Gb_dbt.Engine.trace_cfg.Gb_dbt.Trace_builder.max_visits
      in
      if capacity < 1 then
        error Code_cache_capacity
          "code-cache capacity %d bundles: must be at least 1" capacity
      else if e.Gb_dbt.Engine.hot_threshold < 1 then
        error Hot_threshold "hot threshold %d: must be at least 1"
          e.Gb_dbt.Engine.hot_threshold
      else if visits < 1 then
        error Unroll_limit "trace unroll limit %d: must be at least 1" visits
      else Ok ()

let create ?(config = default_config) ?(obs = Gb_obs.Sink.noop)
    ?(audit = false) ?inject program =
  (match validate config with
  | Ok () -> ()
  | Error (_, msg) -> invalid_arg ("Processor.create: " ^ msg));
  let mem = Gb_riscv.Mem.create ~size:config.mem_size in
  Gb_riscv.Asm.load mem program;
  (* an explicit controller wins; otherwise GHOSTBUSTERS_INJECT can arm
     one under any existing caller (the CI runs the whole suite that
     way) *)
  let inject =
    match inject with Some _ as i -> i | None -> Inject.of_env ~obs ()
  in
  let clock = ref 0 in
  (* every component stamps its events with the shared simulated clock *)
  Gb_obs.Sink.set_cycle_source obs (fun () -> !clock);
  let hier = Gb_cache.Hierarchy.create ~obs config.hier in
  let audit =
    if audit then
      Some (Gb_cache.Audit.create ~obs ~real:(Gb_cache.Hierarchy.cache hier) ())
    else None
  in
  (* the one register file both tiers execute on *)
  let regs =
    Gb_riscv.Regfile.create
      (Gb_vliw.Vinsn.guest_regs + config.machine.Gb_vliw.Machine.n_hidden)
  in
  (* the hoisted sp convention: same single source of truth as
     Interp.create's self-allocated register file *)
  Gb_riscv.Regfile.set regs Gb_riscv.Reg.sp (Gb_riscv.Interp.default_sp mem);
  (* Interpreter accesses are architectural by definition: they mirror
     straight into the audit's shadow cache. *)
  let attrib = Gb_obs.Sink.attrib obs in
  (* the memory hook needs the interpreter's current pc to attribute its
     cost, but the interpreter is built from these hooks — box it *)
  let interp_box = ref None in
  let hooks =
    {
      Gb_riscv.Interp.mem_extra =
        (fun ~addr ~size ~write ->
          let hit = Gb_cache.Hierarchy.access hier ~addr ~size ~write in
          (match audit with
          | Some a -> Gb_cache.Audit.commit_access a ~addr ~size ~write
          | None -> ());
          let cost = Gb_cache.Hierarchy.interp_cost hier ~hit in
          (match attrib with
          | Some a ->
            let pc =
              match !interp_box with
              | Some (i : Gb_riscv.Interp.t) -> i.Gb_riscv.Interp.pc
              | None -> 0
            in
            (* a hit's extra cycle is interpretation cost; a miss penalty
               is the memory system's, same bucket as VLIW-side misses *)
            Gb_obs.Attrib.add_cycles a
              (if hit then Gb_obs.Attrib.Interp_fallback
               else Gb_obs.Attrib.Cache_miss_stall)
              ~tier:Gb_obs.Attrib.Interp ~trace:0 ~pc ~cycles:cost
          | None -> ());
          cost);
      flush_line =
        (fun addr ->
          Gb_cache.Hierarchy.flush_line hier addr;
          match audit with
          | Some a -> Gb_cache.Audit.commit_flush a ~addr
          | None -> ());
    }
  in
  let interp =
    Gb_riscv.Interp.create ~hooks ~clock ~regs ~mem
      ~pc:program.Gb_riscv.Asm.entry ()
  in
  interp_box := Some interp;
  let machine =
    Gb_vliw.Machine.create ~cfg:config.machine ~mem ~hier ~clock ~regs ~obs
      ?audit ()
  in
  (* The machine's MCB is the hardware the translator speculates against,
     and its size is the one MCB knob: a speculating translator gets
     exactly one tag per entry, and no memory speculation at all when
     the MCB is disabled (entries = 0) — otherwise [chk] ops would
     consume entries that were never allocated and silently commit
     unchecked speculative values. *)
  let engine_cfg =
    let entries = config.machine.Gb_vliw.Machine.mcb_entries in
    let opt =
      match config.engine.Gb_dbt.Engine.opt_override with
      | Some o -> o
      | None ->
        Gb_core.Mitigation.opt_of_mode config.engine.Gb_dbt.Engine.mode
    in
    let sized =
      if not opt.Gb_ir.Opt_config.mem_spec then opt
      else if entries <= 0 then
        { opt with Gb_ir.Opt_config.mem_spec = false; mcb_tags = 0 }
      else if opt.Gb_ir.Opt_config.mcb_tags = entries then opt
      else { opt with Gb_ir.Opt_config.mcb_tags = entries }
    in
    let engine =
      if sized == opt then config.engine
      else { config.engine with Gb_dbt.Engine.opt_override = Some sized }
    in
    (* Likewise the hidden registers: code needing more than the machine
       has fails translation (Out_of_registers) and its region stays on
       the lower tiers, instead of reaching the pipeline's size check. *)
    let n_hidden = config.machine.Gb_vliw.Machine.n_hidden in
    if engine.Gb_dbt.Engine.n_hidden <= n_hidden then engine
    else { engine with Gb_dbt.Engine.n_hidden }
  in
  let engine = Gb_dbt.Engine.create ~obs ?audit engine_cfg ~mem in
  (match inject with
  | Some inj ->
    if Inject.rate inj Inject.Translate_fail > 0. then
      Gb_dbt.Engine.set_translate_fault engine
        (Some (fun _entry -> Inject.fire inj Inject.Translate_fail));
    if
      Inject.rate inj Inject.Mcb_spurious > 0.
      || Inject.rate inj Inject.Mcb_suppress > 0.
    then
      Gb_vliw.Mcb.set_fault_hook machine.Gb_vliw.Machine.mcb
        (Some
           (fun ~tag:_ ~conflict ->
             (* only draws that actually flip the outcome count as
                injected faults *)
             if (not conflict) && Inject.fire inj Inject.Mcb_spurious then
               true
             else if conflict && Inject.fire inj Inject.Mcb_suppress then
               false
             else conflict))
  | None -> ());
  {
    cfg = config; mem; clock; hier; interp; machine; engine; obs; attrib;
    audit; inject; on_trace_exit = (fun ~region:_ _ -> ());
  }

let mem t = t.mem

let hierarchy t = t.hier

let engine t = t.engine

let allocs t = Gb_dbt.Engine.allocs t.engine

let obs t = t.obs

let audit t = t.audit

let interp t = t.interp

let machine t = t.machine

let inject t = t.inject

let set_on_trace_exit t f = t.on_trace_exit <- f

let emit_attrib_sample t =
  match t.attrib with
  | Some a ->
    let committed, overhead = Gb_obs.Attrib.sample_cycles a in
    Gb_obs.Sink.event t.obs (Gb_obs.Event.Cycle_attrib { committed; overhead })
  | None -> ()

let result_of t exit_code =
  (* the ledger's hard invariant: every simulated cycle is attributed,
     none twice — sum(buckets) must equal the clock, exactly *)
  (match t.attrib with
  | Some a -> (
    emit_attrib_sample t;
    match Gb_obs.Attrib.check a ~cycles:!(t.clock) with
    | Ok () -> ()
    | Error msg ->
      failwith ("cycle attribution conservation violated: " ^ msg))
  | None -> ());
  let ms = t.machine.Gb_vliw.Machine.stats in
  let es = Gb_dbt.Engine.stats t.engine in
  {
    exit_code;
    cycles = Int64.of_int !(t.clock);
    interp_insns = t.interp.Gb_riscv.Interp.insn_count;
    trace_runs = Int64.of_int ms.Gb_vliw.Machine.trace_runs;
    bundles = Int64.of_int ms.Gb_vliw.Machine.bundles;
    side_exits = Int64.of_int ms.Gb_vliw.Machine.side_exits;
    rollbacks = Int64.of_int ms.Gb_vliw.Machine.rollbacks;
    stall_cycles = Int64.of_int ms.Gb_vliw.Machine.stall_cycles;
    translations = es.Gb_dbt.Engine.translations;
    first_pass_translations = es.Gb_dbt.Engine.first_pass_translations;
    patterns_found = es.Gb_dbt.Engine.patterns_found;
    loads_constrained = es.Gb_dbt.Engine.loads_constrained;
    fences_inserted = es.Gb_dbt.Engine.fences_inserted;
    spec_loads = es.Gb_dbt.Engine.spec_loads;
    verify_checked = es.Gb_dbt.Engine.verify_checked;
    verify_violations = es.Gb_dbt.Engine.verify_violations;
    verify_rejections = es.Gb_dbt.Engine.verify_rejections;
    dispatch_exits = Int64.of_int ms.Gb_vliw.Machine.trace_runs;
    chain_follows = 0L;
    guest_insns =
      Int64.add t.interp.Gb_riscv.Interp.insn_count
        (Int64.of_int ms.Gb_vliw.Machine.guest_insns);
    cc_evictions =
      (Gb_dbt.Code_cache.stats (Gb_dbt.Engine.code_cache t.engine)).Gb_dbt
      .Code_cache.evictions;
    output = Buffer.contents t.interp.Gb_riscv.Interp.output;
    audit = Option.map Gb_cache.Audit.publish t.audit;
  }

let run t =
  let engine = t.engine in
  let cc = Gb_dbt.Engine.code_cache engine in
  Gb_dbt.Engine.record_block_entry engine t.interp.Gb_riscv.Interp.pc;
  let rec loop () =
    if !(t.clock) > t.cfg.max_cycles then
      raise (Gb_riscv.Interp.Trap "cycle watchdog exceeded");
    let pc = t.interp.Gb_riscv.Interp.pc in
    (* the code cache's own entry, not [Engine.lookup]'s [Some] *)
    let e = Gb_dbt.Code_cache.find cc pc in
    if e != Gb_dbt.Code_cache.none then begin
      let trace = e.Gb_dbt.Code_cache.e_trace in
      (match t.inject with
      | Some inj when Inject.fire inj Inject.Evict ->
        (* mid-trace eviction fault: the entry vanishes from the code
           cache while its trace is already in flight; the region
           re-translates when it turns hot again *)
        Gb_dbt.Code_cache.invalidate cc pc
      | _ -> ());
      let info = Gb_vliw.Pipeline.run t.machine trace in
      t.interp.Gb_riscv.Interp.pc <- info.Gb_vliw.Pipeline.next_pc;
      (* periodic committed-vs-overhead sample for the Chrome trace's
         attribution counter lanes, every 256 trace runs *)
      if Option.is_some t.attrib
         && t.machine.Gb_vliw.Machine.stats.Gb_vliw.Machine.trace_runs mod 256
            = 1
      then emit_attrib_sample t;
      (* the one accounting of this exit: the region's run/exit counts,
         the target's hot counter (which may translate it), the
         observer *)
      Gb_dbt.Engine.record_block_exit engine ~entry:pc info;
      Gb_dbt.Engine.record_block_entry engine info.Gb_vliw.Pipeline.next_pc;
      t.on_trace_exit ~region:pc info;
      (match t.inject with
      | Some inj when Inject.fire inj Inject.Decode_flush ->
        (* decode-cache poisoning fault: drop every decoded entry, the
           interpreter must re-decode from guest memory *)
        Gb_riscv.Interp.flush_decode_cache t.interp
      | _ -> ());
      loop ()
    end
    else
      let si = Gb_riscv.Interp.step t.interp in
      (* the step's memory cost was attributed by the mem_extra hook;
         the base cycle of interpreting the insn lands here *)
      (match t.attrib with
      | Some a ->
        Gb_obs.Attrib.add_cycles a Gb_obs.Attrib.Interp_fallback
          ~tier:Gb_obs.Attrib.Interp ~trace:0 ~pc:si.Gb_riscv.Interp.s_pc
          ~cycles:1
      | None -> ());
      (match (si.Gb_riscv.Interp.s_insn, si.Gb_riscv.Interp.s_taken) with
      | Gb_riscv.Insn.Branch _, Some taken ->
        Gb_dbt.Engine.record_branch engine ~pc:si.Gb_riscv.Interp.s_pc ~taken
      | _, _ -> ());
      if si.Gb_riscv.Interp.s_next <> si.Gb_riscv.Interp.s_pc + 4 then
        Gb_dbt.Engine.record_block_entry engine si.Gb_riscv.Interp.s_next;
      match si.Gb_riscv.Interp.s_exit with
      | Some code -> result_of t code
      | None -> loop ()
  in
  loop ()

let run_program ?config ?obs ?audit program =
  let t = create ?config ?obs ?audit program in
  run t
