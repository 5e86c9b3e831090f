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
  mutable cut_protects : int;
  mutable spec_loads : int;
  mutable branch_spec_loads : int;
  mutable verify_checked : int;
  mutable verify_violations : int;
  mutable verify_rejections : int;
  mutable lowerings_reused : int;
  mutable blocks_reused : int;
}

(* The last lowering made at a trace entry: the walk that formed its
   guest trace, the [despeculated] flag it was lowered under, what
   installing it needs from the trace (its branch pcs and guest-insn
   count), the emitted code, the mitigation report and the verdict the
   install-time gate returned for it ([None] under [Verify_off]).
   Forming is a deterministic function of the walk's inputs, lowering a
   pure function of the formed trace, the flag and the engine's fixed
   config, and the gate a pure function of the code and the report's
   plan, so a translation whose walk still holds under the same flag
   reinstalls it without forming the trace at all and books the stored
   verdict. Nothing mutates a trace once it is decoded, so the stored
   [l_trace] is installed as is. *)
type lowering = {
  l_walk : Trace_builder.walk;
  l_despeculated : bool;
  l_branch_pcs : int list;
  l_guest_insns : int;
  l_trace : Gb_vliw.Vinsn.trace;
  l_report : Gb_core.Mitigation.report;
  l_verdict : Gb_verify.Verifier.report option;
}

(* The last first-pass block made at a pc: the decoded code, its
   terminal branch and the gate's verdict. The block is a function of
   text words, which never change, so it is reinstalled as is. *)
type block = {
  b_trace : Gb_vliw.Vinsn.trace;
  b_branch_pc : int option;
  b_verdict : Gb_verify.Verifier.report option;
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
      (** the last unfenced trace lowering made here (see
          {!lower_and_gate}) *)
  mutable block : block option;
      (** the last first-pass block made here, dropped when a trace is
          installed here (see {!translate_first_pass}) *)
}

let fresh_state () =
  { hot = 0; runs = 0; rollbacks = 0; side_exits = 0; rebuilds = 0;
    taken = 0; total = 0; block_branch = None; trace_branches = [];
    blacklisted = false; fp_blacklisted = false; despeculated = false;
    lowered = None; block = None }

(* The state of every pc nothing was recorded at yet, shared: {!state}
   replaces it in a slot before anything is written. *)
let no_state = fresh_state ()

type t = {
  cfg : config;
  mem : Gb_riscv.Mem.t;
  cc : Code_cache.t;  (** the single owner of all translated code *)
  pcs : pc_state array;
      (** the state of each text word, in its code-cache slot, or
          [no_state]: no other pc is fetched, so none has state *)
  stats : stats;
  obs : Gb_obs.Sink.t;
  audit : Gb_cache.Audit.t option;
  mutable verify_log : (int * Gb_verify.Verifier.violation) list;
      (** (region entry, violation), reverse chronological *)
  mutable translate_fault : (int -> bool) option;
      (** fault injection: entry pc -> fail this translation attempt *)
  mutable on_reinstall :
    entry:int ->
    Code_cache.tier ->
    Gb_vliw.Vinsn.trace ->
    plan:Gb_core.Leakcut.plan option ->
    Gb_verify.Verifier.report option ->
    unit;
      (** the observer {!set_on_reinstall} installs *)
  allocs : Gb_obs.Allocs.t;
      (** execution-allocation accumulator: translation entry points
          pause it so a window around a run counts only the execution
          tiers (see {!allocs}) *)
}

let[@inline] slot t pc = Code_cache.slot t.cc pc

(* What is recorded at [pc]: [no_state] where nothing is. *)
let peek t pc =
  let i = slot t pc in
  if i < 0 then no_state else t.pcs.(i)

(* The branch profile the trace builder reads: [(taken, total)] of the
   branch at [pc], [None] before its first outcome. *)
let branch_profile t pc =
  match peek t pc with
  | { taken; total; _ } when total > 0 -> Some (taken, total)
  | _ -> None

(* The engine's counters, read from [s] at each snapshot: [cut_protects]
   only under min-cut, [verify.*] only when the gate runs. *)
let counters ~min_cut ~verify s () =
  [ ("translate.translations", s.translations);
    ("translate.first_pass", s.first_pass_translations);
    ("translate.failures", s.failures);
    ("translate.retranslations", s.retranslations);
    ("translate.despeculations", s.despeculations);
    ("translate.guest_insns", s.guest_insns_translated);
    ("translate.lowerings_reused", s.lowerings_reused);
    ("translate.blocks_reused", s.blocks_reused);
    ("mitigation.patterns_found", s.patterns_found);
    ("mitigation.loads_constrained", s.loads_constrained);
    ("mitigation.fences_inserted", s.fences_inserted) ]
  @ (if min_cut then [ ("mitigation.cut_protects", s.cut_protects) ] else [])
  @
  if verify then
    [ ("verify.checked", s.verify_checked);
      ("verify.violations", s.verify_violations);
      ("verify.rejections", s.verify_rejections) ]
  else []

let create ?(obs = Gb_obs.Sink.noop) ?audit cfg ~mem =
  if cfg.workers <> 0 then
    invalid_arg
      (Printf.sprintf
         "Engine.create: config.workers = %d; translation is synchronous \
          and the field must be 0"
         cfg.workers);
  let text_lo = Gb_riscv.Mem.text_lo mem
  and text_hi = Gb_riscv.Mem.text_hi mem in
  let t = {
    cfg;
    mem;
    cc = Code_cache.create ~obs ~text_lo ~text_hi cfg.cache;
    pcs = Array.make ((text_hi - text_lo) lsr 2) no_state;
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
        cut_protects = 0;
        spec_loads = 0;
        branch_spec_loads = 0;
        verify_checked = 0;
        verify_violations = 0;
        verify_rejections = 0;
        lowerings_reused = 0;
        blocks_reused = 0;
      };
    obs;
    audit;
    verify_log = [];
    translate_fault = None;
    on_reinstall = (fun ~entry:_ _ _ ~plan:_ _ -> ());
    allocs = Gb_obs.Allocs.create ();
  }
  in
  if Gb_obs.Sink.is_active obs then
    Gb_obs.Sink.add_counters obs
      (counters ~min_cut:(cfg.mode = Gb_core.Mitigation.Min_cut)
         ~verify:(cfg.verify <> Verify_off) t.stats);
  (* The bugfix half of the eviction contract: a capacity-evicted region
     that later gets re-promoted must not inherit the adaptive counters
     (runs / rollbacks / side exits) accumulated by its previous
     incarnation — they describe code that no longer exists. Explicit
     invalidation (retranslate / despec) does NOT come through here;
     those paths manage their own resets. *)
  Code_cache.set_on_evict t.cc (fun ~pc tier ->
      let st = peek t pc in
      if st != no_state then begin
        st.runs <- 0;
        st.rollbacks <- 0;
        st.side_exits <- 0;
        match tier with
        | Code_cache.Block -> st.block_branch <- None
        | Code_cache.Trace -> ()
      end);
  t

let config t = t.cfg

let stats t = t.stats

let allocs t = t.allocs

let set_translate_fault t hook = t.translate_fault <- hook

let set_on_reinstall t f = t.on_reinstall <- f

(* An injected transient failure: the entry is NOT blacklisted, so a
   later arrival retries and the region eventually translates. *)
let translate_faulted t entry =
  match t.translate_fault with Some f -> f entry | None -> false

let code_cache t = t.cc

let lookup t pc =
  let e = Code_cache.find t.cc pc in
  if e == Code_cache.none then None else Some e.Code_cache.e_trace

(* The state of the text word in slot [i], created on first use: it
   runs several times per trace exit, and allocates only that once. *)
let state_at t i =
  let st = t.pcs.(i) in
  if st != no_state then st
  else begin
    let st = fresh_state () in
    t.pcs.(i) <- st;
    st
  end

(* The state of [pc], which must be an aligned pc in text: a region
   entry or a branch that ran. *)
let state t pc = state_at t (slot t pc)

let record_branch_outcome st taken =
  if taken then st.taken <- st.taken + 1;
  st.total <- st.total + 1

let record_branch t ~pc ~taken =
  let i = slot t pc in
  if i >= 0 then record_branch_outcome (state_at t i) taken

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

(* the shared miss entry is a block *)
let has_trace t entry =
  (Code_cache.peek t.cc entry).Code_cache.e_tier = Code_cache.Trace

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
        let b = state t pc in
        b.taken <- 0;
        b.total <- 0)
      st.trace_branches;
    st.hot <- t.cfg.hot_threshold - relearn_window;
    t.stats.retranslations <- t.stats.retranslations + 1;
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

(* Record one verdict of the install-time gate against [entry]:
   statistics, the per-entry log and a [Verify_violation] event per
   violation. A fresh gate run books what it found; a reinstall books
   the verdict stored with the code it reinstalls, which a fresh run on
   that code would find again. *)
let book t ~entry vr =
  t.stats.verify_checked <- t.stats.verify_checked + 1;
  let vs = vr.Gb_verify.Verifier.violations in
  if vs <> [] then begin
    t.stats.verify_violations <- t.stats.verify_violations + List.length vs;
    t.verify_log <-
      List.rev_append (List.map (fun v -> (entry, v)) vs) t.verify_log
  end;
  if Gb_obs.Sink.is_active t.obs then
    List.iter
      (fun v ->
        Gb_obs.Sink.event t.obs ~pc:v.Gb_verify.Verifier.v_pc ~region:entry
          (Gb_obs.Event.Verify_violation
             {
               kind = Gb_verify.Verifier.kind_name v.Gb_verify.Verifier.v_kind;
               bundle = v.Gb_verify.Verifier.v_bundle;
             }))
      vs

(* Run the install-time gate on a translation about to be installed and
   book its verdict; [None] under [Verify_off]. With a leak-cut [plan]
   the cut-soundness pass runs too: it proves on the emitted schedule
   that every planned repair landed and no residual source→transmitter
   path survives, and its violations gate exactly like the sticky-taint
   verifier's. *)
let verdict ?plan t ~entry trace =
  match t.cfg.verify with
  | Verify_off -> None
  | Verify_report | Verify_enforce ->
    let vr =
      Gb_obs.Sink.time t.obs "verify" (fun () ->
          Gb_verify.Verifier.gate ?plan trace)
    in
    book t ~entry vr;
    Some vr

(* Whether a verdict lets its translation into the code cache: always,
   unless [Verify_enforce] found a violation. *)
let admits t = function
  | Some vr -> Gb_verify.Verifier.ok vr || t.cfg.verify = Verify_report
  | None -> true

(* Whether the walk a stored lowering was formed from still holds:
   every branch on it reads the direction it read then. *)
let walk_holds t walk =
  Gb_obs.Sink.time t.obs "walk_check" (fun () ->
      Trace_builder.walk_holds t.cfg.trace_cfg ~profile:(branch_profile t)
        walk)

(* What both tiers do to reinstall stored code: book the verdict stored
   with it. *)
let book_stored t ~entry tier trace ~plan verdict =
  Option.iter (book t ~entry) verdict;
  t.on_reinstall ~entry tier trace ~plan verdict

let verify_log t = List.rev t.verify_log

let install_block t st ~entry b =
  ignore (Code_cache.insert t.cc ~pc:entry ~tier:Code_cache.Block b.b_trace);
  (match Gb_obs.Sink.attrib t.obs with
  | Some a -> Gb_obs.Attrib.note_translation a ~entry Gb_obs.Attrib.Block
  | None -> ());
  st.block_branch <- b.b_branch_pc;
  t.stats.first_pass_translations <- t.stats.first_pass_translations + 1;
  Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
    (Gb_obs.Event.Tier_transition { tier = "block" })

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
   would be charged to the counted run once per entry.

   A first-pass re-promotion reinstalls the block stored at its entry;
   a first promotion translates the block, gates it and stores it. *)
let translate_first_pass t st entry =
  Gb_obs.Allocs.pause t.allocs;
  Fun.protect ~finally:(fun () -> Gb_obs.Allocs.resume t.allocs) @@ fun () ->
  if Code_cache.peek t.cc entry != Code_cache.none
     || st.fp_blacklisted
     || translate_faulted t entry
  then ()
  else
    match st.block with
    | Some b ->
      t.stats.blocks_reused <- t.stats.blocks_reused + 1;
      book_stored t ~entry Code_cache.Block b.b_trace ~plan:None b.b_verdict;
      install_block t st ~entry b
    | None -> (
      match
        Gb_obs.Sink.time t.obs "first_pass" (fun () ->
            let block = First_pass.translate ~mem:t.mem ~entry in
            Gb_vliw.Pipeline.decode block.First_pass.trace;
            block)
      with
      | exception First_pass.Untranslatable _ -> st.fp_blacklisted <- true
      | { First_pass.trace; branch_pc } ->
        let v = verdict t ~entry trace in
        if admits t v then begin
          let b = { b_trace = trace; b_branch_pc = branch_pc; b_verdict = v } in
          st.block <- Some b;
          install_block t st ~entry b
        end
        else begin
          (* structurally unreachable — first-pass blocks execute one op
             per bundle in program order — but the gate must not trust
             that *)
          t.stats.verify_rejections <- t.stats.verify_rejections + 1;
          st.fp_blacklisted <- true
        end)

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
   profile, with the pcs of the conditional branches it contains and the
   walk that formed it. *)
let build_trace t entry =
  match
    Gb_obs.Sink.time t.obs "trace_build" (fun () ->
        Trace_builder.build_walk t.cfg.trace_cfg ~mem:t.mem
          ~profile:(branch_profile t) ~entry)
  with
  | exception Trace_builder.Build_failure _ -> None
  | gtrace, walk ->
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
    Some (gtrace, branch_pcs, walk)

(* IR build and mitigation of one formed trace under [opt]. *)
let analyse t ~entry ~opt gtrace =
  let cfg = t.cfg in
  let g =
    Gb_obs.Sink.time t.obs "ir_build" (fun () ->
        Gb_ir.Build.build ~opt ~lat:cfg.lat gtrace)
  in
  let report =
    Gb_obs.Sink.time t.obs "poison_analysis" (fun () ->
        Gb_core.Mitigation.apply ~obs:t.obs ~region:entry cfg.mode ~lat:cfg.lat
          g)
  in
  (g, report)

(* Scheduling and codegen of a mitigated graph. The codegen phase ends
   with the decode of the emitted bundles: every lowering is decoded
   once, here, and every install of it, a stored lowering's included,
   shares that decoded form. *)
let emit t ~entry gtrace g report =
  let cfg = t.cfg in
  let cycles =
    Gb_obs.Sink.time t.obs "schedule" (fun () ->
        Sched.schedule ~obs:t.obs cfg.resources ~lat:cfg.lat g)
  in
  let meta = graph_meta g report in
  Gb_obs.Sink.time t.obs "codegen" (fun () ->
      let trace =
        Codegen.emit cfg.resources ~n_hidden:cfg.n_hidden ~cycles
          ~entry_pc:entry ~guest_insns:(Gb_ir.Gtrace.length gtrace) ~meta g
      in
      Gb_vliw.Pipeline.decode trace;
      trace)

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
  let g, report = analyse t ~entry ~opt gtrace in
  Option.iter (fun a -> note_audit t a ~entry g report) t.audit;
  (emit t ~entry gtrace g report, report)

(* Under [Verify_enforce] a lowering the gate rejects never reaches the
   code cache: it is rebuilt from [gtrace] with speculation fenced
   entirely, and must then verify clean, or the entry is blacklisted. *)
let fence t ~entry gtrace =
  t.stats.verify_rejections <- t.stats.verify_rejections + 1;
  Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
    (Gb_obs.Event.Tier_transition { tier = "verify-fenced" });
  let g, report =
    analyse t ~entry ~opt:Gb_ir.Opt_config.no_speculation gtrace
  in
  let trace = emit t ~entry gtrace g report in
  let plan = report.Gb_core.Mitigation.cut_plan in
  if not (admits t (verdict ?plan t ~entry trace)) then raise Verify_rejected;
  (trace, report)

(* The code to install at [entry], with the branch pcs and guest-insn
   count of its trace; [None] when no trace forms. While the walk stored
   with the last lowering here holds under the same [despeculated] flag,
   that lowering is reinstalled: no trace is formed and the gate does
   not run again, its stored verdict is booked. Otherwise the trace is
   formed, lowered and gated (the post-scheduling verifier re-derives
   the speculation-safety property from the emitted bundles) and, unless
   the gate had to fence it, replaces the stored lowering. Observers take
   the same path: an audit was told a stored lowering's verdicts when it
   was made, and its notes are set inserts. *)
let lower_and_gate t st ~entry =
  match st.lowered with
  | Some l
    when l.l_despeculated = st.despeculated && walk_holds t l.l_walk ->
    t.stats.lowerings_reused <- t.stats.lowerings_reused + 1;
    book_stored t ~entry Code_cache.Trace l.l_trace
      ~plan:l.l_report.Gb_core.Mitigation.cut_plan l.l_verdict;
    Some (l.l_trace, l.l_report, l.l_branch_pcs, l.l_guest_insns)
  | Some _ | None -> (
    match build_trace t entry with
    | None -> None
    | Some (gtrace, branch_pcs, walk) ->
      let guest_insns = Gb_ir.Gtrace.length gtrace in
      let trace, report = lower_trace t st ~entry gtrace in
      let plan = report.Gb_core.Mitigation.cut_plan in
      let v = verdict ?plan t ~entry trace in
      if admits t v then begin
        st.lowered <-
          Some
            {
              l_walk = walk;
              l_despeculated = st.despeculated;
              l_branch_pcs = branch_pcs;
              l_guest_insns = guest_insns;
              l_trace = trace;
              l_report = report;
              l_verdict = v;
            };
        Some (trace, report, branch_pcs, guest_insns)
      end
      else
        let trace, report = fence t ~entry gtrace in
        Some (trace, report, branch_pcs, guest_insns))

let translate_failed t st entry =
  st.blacklisted <- true;
  t.stats.failures <- t.stats.failures + 1;
  Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
    (Gb_obs.Event.Translate_end { ok = false });
  None

let install_trace t st ~entry ~branch_pcs ~guest_insns:len trace
    { Gb_core.Mitigation.patterns_found; loads_constrained; fences_inserted;
      _ } =
  let obs = t.obs in
  ignore (Code_cache.insert t.cc ~pc:entry ~tier:Code_cache.Trace trace);
  (* per-entry translation counts let attribution reports flag churny
     regions (retranslation/despeculation loops) *)
  (match Gb_obs.Sink.attrib obs with
  | Some a -> Gb_obs.Attrib.note_translation a ~entry Gb_obs.Attrib.Trace
  | None -> ());
  st.trace_branches <- branch_pcs;
  st.block_branch <- None;
  (* A pc with a trace is past the hot threshold, so only an adaptive
     re-translation could send it back to the first-pass tier. Keeping
     its block for that case grew the engine's live state by a third
     (81 KB per Figure 4 job) for 25 reuses per 100 jobs. *)
  st.block <- None;
  let s = t.stats in
  s.translations <- s.translations + 1;
  s.guest_insns_translated <- s.guest_insns_translated + len;
  s.patterns_found <- s.patterns_found + patterns_found;
  s.loads_constrained <- s.loads_constrained + loads_constrained;
  s.fences_inserted <- s.fences_inserted + fences_inserted;
  let meta = trace.Gb_vliw.Vinsn.meta in
  s.cut_protects <- s.cut_protects + meta.Gb_vliw.Vinsn.cut_protects;
  s.spec_loads <- s.spec_loads + meta.Gb_vliw.Vinsn.spec_loads;
  s.branch_spec_loads <-
    s.branch_spec_loads + meta.Gb_vliw.Vinsn.branch_spec_loads;
  if Gb_obs.Sink.is_active obs then begin
    Gb_obs.Sink.observe obs "translate.trace_guest_insns" (float_of_int len);
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
  let e = Code_cache.peek t.cc entry in
  if e.Code_cache.e_tier = Code_cache.Trace then Some e.Code_cache.e_trace
  else if slot t entry < 0 then None
  else
    let st = state t entry in
    if st.blacklisted || translate_faulted t entry then None
    else begin
      Gb_obs.Sink.event t.obs ~pc:entry ~region:entry
        Gb_obs.Event.Translate_start;
      match lower_and_gate t st ~entry with
      | None -> translate_failed t st entry
      | Some (trace, report, branch_pcs, guest_insns) ->
        install_trace t st ~entry ~branch_pcs ~guest_insns trace report
      | exception
          ( Trace_builder.Build_failure _ | Gb_ir.Build.Unsupported _
          | Codegen.Out_of_registers | Sched.Cyclic | Verify_rejected ) ->
        translate_failed t st entry
    end

type region = {
  r_entry : int;
  r_tier : [ `Block | `Trace ];
  r_trace : Gb_vliw.Vinsn.trace;
  r_runs : int;
}

let regions t =
  let runs entry = (peek t entry).runs in
  List.sort
    (fun a b ->
      match Int.compare b.r_runs a.r_runs with
      | 0 -> Int.compare a.r_entry b.r_entry
      | c -> c)
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

(* A pc outside text is ignored: the next fetch there traps. *)
let record_block_entry t pc =
  let i = slot t pc in
  if i >= 0 then begin
    let st = state_at t i in
    let n = st.hot + 1 in
    st.hot <- n;
    if n >= t.cfg.hot_threshold && (not st.blacklisted)
       && not (has_trace t pc)
    then ignore (translate t pc)
    else if n >= t.cfg.first_pass_threshold && n < t.cfg.hot_threshold then
      translate_first_pass t st pc
  end
