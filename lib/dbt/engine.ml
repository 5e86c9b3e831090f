type verify_level = Verify_off | Verify_report | Verify_enforce

type config = {
  adaptive_retranslate : bool;
  adaptive_despec : bool;
  first_pass_threshold : int;
  hot_threshold : int;
  mode : Gb_core.Mitigation.mode;
  opt_override : Gb_ir.Opt_config.t option;
  resources : Sched.resources;
  lat : Gb_ir.Latency.t;
  trace_cfg : Trace_builder.config;
  n_hidden : int;
  cache : Code_cache.config;
  verify : verify_level;
  workers : int;  (* vestigial: must be 0, see engine.mli *)
}

let default_config =
  {
    adaptive_retranslate = true;
    adaptive_despec = false;
    first_pass_threshold = 4;
    hot_threshold = 24;
    mode = Gb_core.Mitigation.Unsafe;
    opt_override = None;
    resources = Sched.default_resources;
    lat = Gb_ir.Latency.default;
    trace_cfg = Trace_builder.default_config;
    n_hidden = 96;
    cache = Code_cache.default_config;
    verify = Verify_off;
    workers = 0;
  }

type stats = {
  mutable retranslations : int;
  mutable despeculations : int;
  mutable first_pass_translations : int;
  mutable translations : int;
  mutable failures : int;
  mutable guest_insns_translated : int;
  mutable patterns_found : int;
  mutable loads_constrained : int;
  mutable fences_inserted : int;
  mutable spec_loads : int;
  mutable branch_spec_loads : int;
  mutable verify_checked : int;
  mutable verify_violations : int;
  mutable verify_rejections : int;
  mutable lowerings_reused : int;
}

(* The last lowering made at a trace entry: the formed guest trace, the
   [despeculated] flag it was lowered under, the emitted code and the
   mitigation report. Lowering is a pure function of those two keys and
   the engine's fixed config, so a translation that forms an equal trace
   under the same flag reinstalls it instead of lowering again.
   [l_trace] is a template that never enters the code cache: each
   install gets a copy with its own stubs ({!instantiate}). *)
type lowering = {
  l_gtrace : Gb_ir.Gtrace.t;
  l_despeculated : bool;
  l_trace : Gb_vliw.Vinsn.trace;
  l_report : Gb_core.Mitigation.report;
}

(* Everything the engine remembers about one guest pc, in one record so a
   trace exit looks a pc up once rather than once per counter. A pc plays
   up to three roles and each has its own fields: a control-transfer
   target ([hot]), the entry of an installed region (runs, exits,
   blacklists, the first-level block's terminal branch, the trace's
   branches) and a conditional branch ([taken]/[total], the profile the
   trace builder reads). *)
type pc_state = {
  mutable hot : int;  (** arrivals counted by {!record_block_entry} *)
  mutable runs : int;  (** region executions seen by {!record_block_exit} *)
  mutable rollbacks : int;
  mutable side_exits : int;
  mutable rebuilds : int;  (** bias-driven rebuilds of the trace here *)
  mutable taken : int;
  mutable total : int;
      (** branch profile; a zero [total] means no profile (see
          {!branch_profile}) *)
  mutable block_branch : int option;
      (** terminal branch pc of the first-level block installed here *)
  mutable trace_branches : int list;
      (** pcs of the conditional branches inside the last trace installed
          here *)
  mutable blacklisted : bool;  (** a trace translation here failed *)
  mutable fp_blacklisted : bool;
      (** a first-pass translation here failed or was rejected *)
  mutable despeculated : bool;
      (** traces here are built without memory speculation *)
  mutable lowered : lowering option;
      (** the last unfenced trace lowering made here, kept only while no
          observer is attached (see {!lower_and_gate}) *)
}

module Pc_tbl = Hashtbl.Make (Int)

type t = {
  cfg : config;
  mem : Gb_riscv.Mem.t;
  cc : Code_cache.t;  (** the single owner of all translated code *)
  pcs : pc_state Pc_tbl.t;
  stats : stats;
  obs : Gb_obs.Sink.t;
  audit : Gb_cache.Audit.t option;
  mutable verify_log : (int * Gb_verify.Verifier.violation) list;
      (** (region entry, violation), reverse chronological *)
  mutable translate_fault : (int -> bool) option;
      (** fault injection: entry pc -> fail this translation attempt *)
  allocs : Gb_obs.Allocs.t;
      (** execution-allocation accumulator: translation entry points
          pause it so a window around a run counts only the execution
          tiers (see {!allocs}) *)
}

let create ?(obs = Gb_obs.Sink.noop) ?audit cfg ~mem =
  if cfg.workers <> 0 then
    invalid_arg
      (Printf.sprintf
         "Engine.create: config.workers = %d; translation is synchronous \
          and the field must be 0"
         cfg.workers);
  let t = {
    cfg;
    mem;
    cc = Code_cache.create ~obs cfg.cache;
    pcs = Pc_tbl.create 256;
    stats =
      {
        retranslations = 0;
        despeculations = 0;
        first_pass_translations = 0;
        translations = 0;
        failures = 0;
        guest_insns_translated = 0;
        patterns_found = 0;
        loads_constrained = 0;
        fences_inserted = 0;
        spec_loads = 0;
        branch_spec_loads = 0;
        verify_checked = 0;
        verify_violations = 0;
        verify_rejections = 0;
        lowerings_reused = 0;
      };
    obs;
    audit;
    verify_log = [];
    translate_fault = None;
    allocs = Gb_obs.Allocs.create ();
  }
  in
  (* The bugfix half of the eviction contract: a capacity-evicted region
     that later gets re-promoted must not inherit the adaptive counters
     (runs / rollbacks / side exits) accumulated by its previous
     incarnation — they describe code that no longer exists. Explicit
     invalidation (retranslate / despec) does NOT come through here;
     those paths manage their own resets. *)
  Code_cache.set_on_evict t.cc (fun ~pc tier ->
      match Pc_tbl.find t.pcs pc with
      | st -> (
        st.runs <- 0;
        st.rollbacks <- 0;
        st.side_exits <- 0;
        match tier with
        | Code_cache.Block -> st.block_branch <- None
        | Code_cache.Trace -> ())
      | exception Not_found -> ());
  t

let config t = t.cfg

let stats t = t.stats

let allocs t = t.allocs

let set_translate_fault t hook = t.translate_fault <- hook

let translate_faulted t entry =
  match t.translate_fault with
  | Some f when f entry ->
    (* injected transient failure: the entry is NOT blacklisted, so a
       later arrival retries and the region eventually translates *)
    Gb_obs.Sink.incr t.obs "translate.injected_faults";
    true
  | Some _ | None -> false

let code_cache t = t.cc

let lookup t pc =
  match Code_cache.find t.cc pc with
  | Some e -> Some e.Code_cache.e_trace
  | None -> None

(* The state of [pc], created on first use. This runs several times per
   chained trace exit, so it must not allocate once the pc is known:
   [find]'s [Not_found] is a constant, unlike [find_opt]'s per-hit
   [Some]. *)
let state t pc =
  match Pc_tbl.find t.pcs pc with
  | st -> st
  | exception Not_found ->
    let st =
      {
        hot = 0;
        runs = 0;
        rollbacks = 0;
        side_exits = 0;
        rebuilds = 0;
        taken = 0;
        total = 0;
        block_branch = None;
        trace_branches = [];
        blacklisted = false;
        fp_blacklisted = false;
        despeculated = false;
        lowered = None;
      }
    in
    Pc_tbl.add t.pcs pc st;
    st

let record_branch_outcome st taken =
  if taken then st.taken <- st.taken + 1;
  st.total <- st.total + 1

let record_branch t ~pc ~taken = record_branch_outcome (state t pc) taken

(* Adaptive de-speculation: a trace whose MCB rollback rate crosses the
   threshold is re-translated without memory speculation — misspeculation
   replay is more expensive than the parallelism it buys. *)
let despec_min_rollbacks = 8

let consider_despeculation t entry st =
  if t.cfg.adaptive_despec
     && (not st.despeculated)
     && st.rollbacks >= despec_min_rollbacks
     && st.rollbacks * 8 >= st.runs
  then begin
    (* drop the speculative translation; the entry counter is already
       past the hot threshold, so the next arrival re-translates it
       under the de-speculated configuration *)
    st.despeculated <- true;
    Code_cache.invalidate t.cc entry;
    st.blacklisted <- false;
    t.stats.despeculations <- t.stats.despeculations + 1;
    Gb_obs.Sink.incr t.obs "translate.despeculations";
    Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
      (Gb_obs.Event.Tier_transition { tier = "despeculated" })
  end

(* Adaptive re-translation: when a phase change flips a branch the trace
   was specialised on, essentially every run leaves through its first side
   exit. Drop the stale trace so it is rebuilt from the current profile.
   The threshold is a 3/4 exit ratio: loops with short trip counts exit
   every few runs as a matter of course (~25-50 %) and must not be
   touched — only a flipped bias drives the ratio towards 100 %. A small
   rebuild budget prevents thrashing on genuinely unbiased regions. *)
let retranslate_min_side_exits = 48

let max_bias_rebuilds = 2

(* interpreted executions used to re-learn the branch bias after a stale
   trace is dropped (the old profile is discarded: cumulative counts from
   the previous phase would otherwise dominate the ratio forever) *)
let relearn_window = 16

let has_trace t entry = Code_cache.has_trace t.cc entry

(* The counters are tested before the code-cache lookup: they are a
   field read away, and most side exits fail them. *)
let consider_retranslation t entry st =
  if t.cfg.adaptive_retranslate
     && st.rebuilds < max_bias_rebuilds
     && st.side_exits >= retranslate_min_side_exits
     && st.side_exits * 4 >= st.runs * 3
     && has_trace t entry
  then begin
    st.rebuilds <- st.rebuilds + 1;
    Code_cache.invalidate t.cc entry;
    st.blacklisted <- false;
    st.side_exits <- 0;
    st.runs <- 0;
    (* forget the stale bias and re-learn it on the interpreter *)
    List.iter
      (fun pc ->
        match Pc_tbl.find t.pcs pc with
        | b ->
          b.taken <- 0;
          b.total <- 0
        | exception Not_found -> ())
      st.trace_branches;
    st.hot <- t.cfg.hot_threshold - relearn_window;
    t.stats.retranslations <- t.stats.retranslations + 1;
    Gb_obs.Sink.incr t.obs "translate.retranslations";
    Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
      (Gb_obs.Event.Tier_transition { tier = "retranslate" })
  end

let record_block_exit t ~entry info =
  let st = state t entry in
  st.runs <- st.runs + 1;
  (match info.Gb_vliw.Pipeline.kind with
  | Gb_vliw.Pipeline.Rollback ->
    st.rollbacks <- st.rollbacks + 1;
    consider_despeculation t entry st
  | Gb_vliw.Pipeline.Side_exit ->
    st.side_exits <- st.side_exits + 1;
    consider_retranslation t entry st
  | Gb_vliw.Pipeline.Fallthrough -> ());
  match st.block_branch with
  | Some branch_pc -> (
    match info.Gb_vliw.Pipeline.kind with
    | Gb_vliw.Pipeline.Side_exit ->
      record_branch_outcome (state t branch_pc) true
    | Gb_vliw.Pipeline.Fallthrough ->
      record_branch_outcome (state t branch_pc) false
    | Gb_vliw.Pipeline.Rollback -> ())
  | None -> ()

(* Run the post-scheduling verifier over a translation about to be
   installed, record its findings (counters, events, the per-entry log)
   and return the report. Called for both tiers whenever verification is
   enabled; the caller decides what a violation means (report vs
   reject). With a leak-cut [plan] the cut-soundness pass runs too: it
   proves on the emitted schedule that every planned repair landed and
   no residual source→transmitter path survives, and its violations gate
   exactly like the sticky-taint verifier's. *)
let note_verify ?plan t ~entry trace =
  let vr =
    Gb_obs.Sink.time t.obs "verify" (fun () ->
        let vr = Gb_verify.Verifier.verify trace in
        match plan with
        | None -> vr
        | Some p ->
          { vr with
            Gb_verify.Verifier.violations =
              vr.Gb_verify.Verifier.violations
              @ Gb_verify.Verifier.check_cut trace ~plan:p })
  in
  t.stats.verify_checked <- t.stats.verify_checked + 1;
  let vs = vr.Gb_verify.Verifier.violations in
  if vs <> [] then begin
    t.stats.verify_violations <- t.stats.verify_violations + List.length vs;
    t.verify_log <-
      List.rev_append (List.map (fun v -> (entry, v)) vs) t.verify_log
  end;
  if Gb_obs.Sink.is_active t.obs then begin
    Gb_obs.Sink.incr t.obs "verify.checked";
    if vs <> [] then
      Gb_obs.Sink.incr t.obs ~by:(List.length vs) "verify.violations";
    List.iter
      (fun v ->
        Gb_obs.Sink.event t.obs ~pc:v.Gb_verify.Verifier.v_pc ~region:entry
          (Gb_obs.Event.Verify_violation
             {
               kind = Gb_verify.Verifier.kind_name v.Gb_verify.Verifier.v_kind;
               bundle = v.Gb_verify.Verifier.v_bundle;
             }))
      vs
  end;
  vr

let verify_log t = List.rev t.verify_log

(* a fenced retranslation that still fails verification (which would take
   a code-generator bug) aborts the translation; the entry is blacklisted
   and stays on the interpreter *)
exception Verify_rejected

(* The two translation entry points below ([translate_first_pass],
   [translate]) are the only ways into the translation pipeline —
   promotion-triggered translations included, since record_block_entry
   goes through them — so bracketing them with an exclusion window is a
   sound cut: a {!Gb_obs.Allocs} window around a processor run then
   counts only execution-tier allocation. Translation allocates freely by
   design (IR, DFG, scheduling) and would drown the number the hot loops
   are held to. Each one pauses before it allocates anything, the
   [Fun.protect] closures included: a closure built ahead of the pause
   would be charged to the counted run once per entry. *)
let translate_first_pass t st entry =
  Gb_obs.Allocs.pause t.allocs;
  Fun.protect ~finally:(fun () -> Gb_obs.Allocs.resume t.allocs) @@ fun () ->
  if Code_cache.peek t.cc entry <> None
     || st.fp_blacklisted
     || translate_faulted t entry
  then ()
  else
    match
      Gb_obs.Sink.time t.obs "first_pass" (fun () ->
          First_pass.translate ~mem:t.mem ~entry)
    with
    | { First_pass.trace; branch_pc }
      when t.cfg.verify = Verify_enforce
           && not (Gb_verify.Verifier.ok (note_verify t ~entry trace)) ->
      (* structurally unreachable — first-pass blocks execute one op per
         bundle in program order — but the gate must not trust that *)
      ignore branch_pc;
      t.stats.verify_rejections <- t.stats.verify_rejections + 1;
      Gb_obs.Sink.incr t.obs "verify.rejections";
      st.fp_blacklisted <- true
    | { First_pass.trace; branch_pc } ->
      if t.cfg.verify = Verify_report then ignore (note_verify t ~entry trace);
      ignore
        (Code_cache.insert t.cc ~pc:entry ~tier:Code_cache.Block
           ~mode:Code_cache.Nonspec trace);
      (match Gb_obs.Sink.attrib t.obs with
      | Some a -> Gb_obs.Attrib.note_translation a ~entry Gb_obs.Attrib.Block
      | None -> ());
      st.block_branch <- branch_pc;
      t.stats.first_pass_translations <- t.stats.first_pass_translations + 1;
      Gb_obs.Sink.incr t.obs "translate.first_pass";
      Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
        (Gb_obs.Event.Tier_transition { tier = "block" })
    | exception First_pass.Untranslatable _ -> st.fp_blacklisted <- true

let branch_profile t pc =
  match Pc_tbl.find t.pcs pc with
  | { taken; total; _ } when total > 0 -> Some (taken, total)
  | _ | (exception Not_found) -> None

let graph_meta g (report : Gb_core.Mitigation.report) =
  let spec_loads = ref 0 in
  let branch_spec_loads = ref 0 in
  Gb_ir.Dfg.iter_nodes g (fun n ->
      match Gb_ir.Dfg.spec_of n with
      | Some s ->
        if s.Gb_ir.Dfg.tag <> None then incr spec_loads;
        if s.Gb_ir.Dfg.spec_prev_branch <> None
           && not s.Gb_ir.Dfg.constrained
        then incr branch_spec_loads
      | None -> ());
  {
    Gb_vliw.Vinsn.spec_loads = !spec_loads;
    branch_spec_loads = !branch_spec_loads;
    spectre_patterns = report.Gb_core.Mitigation.patterns_found;
    constrained_loads = report.Gb_core.Mitigation.loads_constrained;
    fences_inserted = report.Gb_core.Mitigation.fences_inserted;
    cut_protects =
      (match report.Gb_core.Mitigation.cut_plan with
      | Some plan ->
        plan.Gb_core.Leakcut.dep_reinserts + plan.Gb_core.Leakcut.masks
      | None -> 0);
  }

(* The leakage audit wants the detector's verdicts for this region: which
   loads ran speculatively, which the analysis flagged, which the
   mitigation actually constrained. *)
let note_audit t a ~entry g (report : Gb_core.Mitigation.report) =
  Gb_ir.Dfg.iter_nodes g (fun n ->
      match Gb_ir.Dfg.spec_of n with
      | Some s
        when s.Gb_ir.Dfg.tag <> None
             || s.Gb_ir.Dfg.spec_prev_branch <> None
             || s.Gb_ir.Dfg.constrained ->
        Gb_cache.Audit.note_spec_load a ~pc:n.Gb_ir.Dfg.guest_pc
      | Some _ | None -> ());
  List.iter
    (fun pc ->
      Gb_cache.Audit.note_flagged a ~pc;
      Gb_cache.Audit.note_constrained a ~pc)
    report.Gb_core.Mitigation.flagged_pcs;
  (* Under Unsafe nothing flags or constrains, so detector precision
     would be unmeasurable: run the poisoning analysis once report-only
     (it never mutates the graph) to obtain the ground-truth flag set
     without changing the generated code. *)
  if t.cfg.mode = Gb_core.Mitigation.Unsafe then
    List.iter
      (fun id ->
        let pc = (Gb_ir.Dfg.node g id).Gb_ir.Dfg.guest_pc in
        Gb_cache.Audit.note_flagged a ~pc;
        Gb_obs.Sink.event t.obs ~pc ~region:entry
          (Gb_obs.Event.Poison_flagged { node = id }))
      (Gb_core.Poison.analyze g).Gb_core.Poison.patterns

(* Trace formation: the region's guest path under the current branch
   profile, with the pcs of the conditional branches it contains. *)
let build_trace t entry =
  let profile pc = branch_profile t pc in
  match
    Gb_obs.Sink.time t.obs "trace_build" (fun () ->
        Trace_builder.build t.cfg.trace_cfg ~mem:t.mem ~profile ~entry)
  with
  | exception Trace_builder.Build_failure _ -> None
  | gtrace ->
    let branch_pcs =
      List.filter_map
        (fun st ->
          match st.Gb_ir.Gtrace.insn with
          | Gb_riscv.Insn.Branch _ -> Some st.Gb_ir.Gtrace.pc
          | _ -> None)
        gtrace.Gb_ir.Gtrace.steps
    in
    Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
      (Gb_obs.Event.Trace_formed
         {
           guest_insns = Gb_ir.Gtrace.length gtrace;
           branches = List.length branch_pcs;
         });
    Some (gtrace, branch_pcs)

(* IR build and mitigation of one formed trace under [opt]. *)
let analyse t ~opt gtrace =
  let cfg = t.cfg in
  let g =
    Gb_obs.Sink.time t.obs "ir_build" (fun () ->
        Gb_ir.Build.build ~opt ~lat:cfg.lat gtrace)
  in
  let report =
    Gb_obs.Sink.time t.obs "poison_analysis" (fun () ->
        Gb_core.Mitigation.apply ~obs:t.obs cfg.mode ~lat:cfg.lat g)
  in
  (g, report)

(* Scheduling and codegen of a mitigated graph. *)
let emit t ~entry gtrace g report =
  let cfg = t.cfg in
  let cycles =
    Gb_obs.Sink.time t.obs "schedule" (fun () ->
        Sched.schedule ~obs:t.obs cfg.resources ~lat:cfg.lat g)
  in
  let meta = graph_meta g report in
  Gb_obs.Sink.time t.obs "codegen" (fun () ->
      Codegen.emit cfg.resources ~n_hidden:cfg.n_hidden ~cycles ~entry_pc:entry
        ~guest_insns:(Gb_ir.Gtrace.length gtrace)
        ~meta g)

(* The full lowering of one formed trace: [(trace, report)], or one of
   the pipeline's failure exceptions. *)
let lower_trace t st ~entry gtrace =
  let opt =
    match t.cfg.opt_override with
    | Some opt -> opt
    | None -> Gb_core.Mitigation.opt_of_mode t.cfg.mode
  in
  let opt =
    if st.despeculated then
      { opt with Gb_ir.Opt_config.mem_spec = false; mcb_tags = 0 }
    else opt
  in
  let g, report = analyse t ~opt gtrace in
  Option.iter (fun a -> note_audit t a ~entry g report) t.audit;
  (emit t ~entry gtrace g report, report)

(* Install-time gate: the post-scheduling verifier re-derives the
   speculation-safety property from the emitted bundles. Under
   [Verify_enforce] a violating translation never reaches the code
   cache — it is rebuilt with speculation fenced entirely (and must then
   verify clean, or the entry is blacklisted). Returns
   [(trace, report, fenced)]. *)
let gate t ~entry gtrace (trace, report) =
  match t.cfg.verify with
  | Verify_off -> (trace, report, false)
  | (Verify_report | Verify_enforce) as lvl ->
    let vr =
      note_verify ?plan:report.Gb_core.Mitigation.cut_plan t ~entry trace
    in
    if Gb_verify.Verifier.ok vr || lvl = Verify_report then
      (trace, report, false)
    else begin
      t.stats.verify_rejections <- t.stats.verify_rejections + 1;
      Gb_obs.Sink.incr t.obs "verify.rejections";
      Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
        (Gb_obs.Event.Tier_transition { tier = "verify-fenced" });
      let g, report =
        analyse t ~opt:Gb_ir.Opt_config.no_speculation gtrace
      in
      let trace = emit t ~entry gtrace g report in
      if
        not
          (Gb_verify.Verifier.ok
             (note_verify ?plan:report.Gb_core.Mitigation.cut_plan t ~entry
                trace))
      then raise Verify_rejected;
      (trace, report, true)
    end

(* A copy of a template sharing its bundles, which nothing mutates after
   codegen, with fresh unchained stubs: chain links are per install. *)
let instantiate (tpl : Gb_vliw.Vinsn.trace) =
  {
    tpl with
    Gb_vliw.Vinsn.stubs =
      Array.map
        (fun (s : Gb_vliw.Vinsn.stub) -> { s with Gb_vliw.Vinsn.chain = None })
        tpl.Gb_vliw.Vinsn.stubs;
  }

(* The code to install for a formed trace, through the gate. A trace
   equal to the one stored at its entry under the same [despeculated]
   flag reuses that lowering; any other is lowered in full and, unless
   the gate had to fence it, replaces the stored one. An active sink or
   an attached audit reads the events, timers and DFG of the full
   lowering, so with either one the slot is neither read nor written. *)
let lower_and_gate t st ~entry gtrace =
  let reuse = not (Gb_obs.Sink.is_active t.obs || Option.is_some t.audit) in
  match st.lowered with
  | Some l
    when reuse
         && l.l_despeculated = st.despeculated
         && Gb_ir.Gtrace.equal l.l_gtrace gtrace ->
    t.stats.lowerings_reused <- t.stats.lowerings_reused + 1;
    gate t ~entry gtrace (instantiate l.l_trace, l.l_report)
  | Some _ | None ->
    let ((trace, report, fenced) as lowered) =
      gate t ~entry gtrace (lower_trace t st ~entry gtrace)
    in
    if reuse && not fenced then
      st.lowered <-
        Some
          {
            l_gtrace = gtrace;
            l_despeculated = st.despeculated;
            l_trace = instantiate trace;
            l_report = report;
          };
    lowered

let translate_failed t st entry =
  st.blacklisted <- true;
  t.stats.failures <- t.stats.failures + 1;
  Gb_obs.Sink.incr t.obs "translate.failures";
  Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
    (Gb_obs.Event.Translate_end { ok = false });
  None

let install_trace t st ~entry ~branch_pcs gtrace (trace, report, fenced) =
  let obs = t.obs in
  let len = Gb_ir.Gtrace.length gtrace in
  (* de-speculated regions carry no speculative loads at all, so they are
     a safe chain target from any predecessor *)
  let mode =
    if fenced || st.despeculated then Code_cache.Nonspec
    else Code_cache.Mitigated t.cfg.mode
  in
  ignore (Code_cache.insert t.cc ~pc:entry ~tier:Code_cache.Trace ~mode trace);
  (* per-entry translation counts let attribution reports flag churny
     regions (retranslation/despeculation loops) *)
  (match Gb_obs.Sink.attrib obs with
  | Some a -> Gb_obs.Attrib.note_translation a ~entry Gb_obs.Attrib.Trace
  | None -> ());
  st.trace_branches <- branch_pcs;
  st.block_branch <- None;
  let s = t.stats in
  s.translations <- s.translations + 1;
  s.guest_insns_translated <- s.guest_insns_translated + len;
  s.patterns_found <-
    s.patterns_found + report.Gb_core.Mitigation.patterns_found;
  s.loads_constrained <-
    s.loads_constrained + report.Gb_core.Mitigation.loads_constrained;
  s.fences_inserted <-
    s.fences_inserted + report.Gb_core.Mitigation.fences_inserted;
  s.spec_loads <-
    s.spec_loads + trace.Gb_vliw.Vinsn.meta.Gb_vliw.Vinsn.spec_loads;
  s.branch_spec_loads <-
    s.branch_spec_loads
    + trace.Gb_vliw.Vinsn.meta.Gb_vliw.Vinsn.branch_spec_loads;
  if Gb_obs.Sink.is_active obs then begin
    Gb_obs.Sink.incr obs "translate.translations";
    Gb_obs.Sink.incr obs ~by:len "translate.guest_insns";
    Gb_obs.Sink.observe obs "translate.trace_guest_insns" (float_of_int len);
    let meta = trace.Gb_vliw.Vinsn.meta in
    if meta.Gb_vliw.Vinsn.spec_loads > 0
       || meta.Gb_vliw.Vinsn.branch_spec_loads > 0
    then
      Gb_obs.Sink.event obs ~pc:entry ~region:entry
        (Gb_obs.Event.Load_hoisted
           {
             spec_loads = meta.Gb_vliw.Vinsn.spec_loads;
             past_branch = meta.Gb_vliw.Vinsn.branch_spec_loads;
           });
    Gb_obs.Sink.event obs ~pc:entry ~region:entry
      (Gb_obs.Event.Tier_transition { tier = "trace" });
    Gb_obs.Sink.event obs ~pc:entry ~region:entry
      (Gb_obs.Event.Translate_end { ok = true })
  end;
  Some trace

let translate t entry =
  Gb_obs.Allocs.pause t.allocs;
  Fun.protect ~finally:(fun () -> Gb_obs.Allocs.resume t.allocs) @@ fun () ->
  match Code_cache.peek t.cc entry with
  | Some e when e.Code_cache.e_tier = Code_cache.Trace ->
    Some e.Code_cache.e_trace
  | Some _ | None ->
    let st = state t entry in
    if st.blacklisted || translate_faulted t entry then None
    else begin
      Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
        Gb_obs.Event.Translate_start;
      match build_trace t entry with
      | None -> translate_failed t st entry
      | Some (gtrace, branch_pcs) -> (
        match lower_and_gate t st ~entry gtrace with
        | lowered -> install_trace t st ~entry ~branch_pcs gtrace lowered
        | exception
            ( Gb_ir.Build.Unsupported _ | Codegen.Out_of_registers
            | Sched.Cyclic | Verify_rejected ) ->
          translate_failed t st entry)
    end

type region = {
  r_entry : int;
  r_tier : [ `Block | `Trace ];
  r_trace : Gb_vliw.Vinsn.trace;
  r_runs : int;
}

let regions t =
  let runs entry =
    match Pc_tbl.find t.pcs entry with
    | st -> st.runs
    | exception Not_found -> 0
  in
  List.sort
    (fun a b -> compare (b.r_runs, a.r_entry) (a.r_runs, b.r_entry))
    (List.map
       (fun e ->
         {
           r_entry = e.Code_cache.e_pc;
           r_tier =
             (match e.Code_cache.e_tier with
             | Code_cache.Block -> `Block
             | Code_cache.Trace -> `Trace);
           r_trace = e.Code_cache.e_trace;
           r_runs = runs e.Code_cache.e_pc;
         })
       (Code_cache.entries t.cc))

let record_block_entry t pc =
  let st = state t pc in
  let n = st.hot + 1 in
  st.hot <- n;
  if n >= t.cfg.hot_threshold && (not st.blacklisted) && not (has_trace t pc)
  then ignore (translate t pc)
  else if n >= t.cfg.first_pass_threshold && n < t.cfg.hot_threshold then
    translate_first_pass t st pc

(* Lazy chaining, QEMU-style: after the dispatcher has handled a trace
   exit (and possibly translated the successor), patch the taken stub to
   transfer directly next time. Everything that makes this safe lives in
   {!Code_cache.link}: tier and mitigation-mode compatibility, and the
   stub's own target_pc having to equal the successor's entry — so a
   stale [info] (the source retranslated since the exit) cannot create a
   wrong edge. Rollback stubs are never linked: MCB recovery must
   re-enter the dispatcher-visible path. *)
let chain t (info : Gb_vliw.Pipeline.exit_info) =
  if info.Gb_vliw.Pipeline.kind <> Gb_vliw.Pipeline.Rollback then
    match
      ( Code_cache.peek t.cc info.Gb_vliw.Pipeline.exit_entry,
        Code_cache.peek t.cc info.Gb_vliw.Pipeline.next_pc )
    with
    | Some src, Some dst ->
      ignore
        (Code_cache.link t.cc ~src ~stub:info.Gb_vliw.Pipeline.taken_stub ~dst)
    | _ -> ()

let chained_successor t (info : Gb_vliw.Pipeline.exit_info) =
  match
    ( Code_cache.peek t.cc info.Gb_vliw.Pipeline.exit_entry,
      Code_cache.find t.cc info.Gb_vliw.Pipeline.next_pc )
  with
  | Some src, Some dst when Code_cache.compatible ~src ~dst ->
    Some dst.Code_cache.e_trace
  | _ -> None
