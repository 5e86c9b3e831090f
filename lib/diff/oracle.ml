type divergence = {
  d_pc : int;
  d_region : int option;
  d_tier : string;
  d_kind : string;
  d_detail : string;
}

type report = {
  divergence : divergence option;
  syncs : int;
  injected : int;
  recovered : int;
  ref_insns : int64;
  dbt_result : Gb_system.Processor.result option;
  trap : string option;
}

let clean r =
  r.divergence = None && r.trap = None && r.injected = r.recovered

let pp_divergence ppf d =
  Format.fprintf ppf "%s divergence at pc 0x%x%s [%s]: %s" d.d_kind d.d_pc
    (match d.d_region with
    | Some r -> Printf.sprintf " (region 0x%x)" r
    | None -> "")
    d.d_tier d.d_detail

(* How far the reference may run to reach one sync target. A single trace
   pass covers at most a few hundred guest instructions, but rollbacks
   re-execute and cold stretches between translated regions are unbounded
   in principle; a generous budget keeps a genuine divergence (reference
   never reaches the target state) detectable without hanging. *)
let sync_fuel = 10_000_000

(* full-memory compares are the backstop against stray DBT writes outside
   the reference write set; every [full_every] syncs plus once at the end *)
let default_full_every = 512

let page_bits = 8

let run ?(config = Gb_system.Processor.default_config)
    ?(obs = Gb_obs.Sink.noop) ?inject ?(seed = 1L)
    ?(full_compare_every = default_full_every) program =
  if Gb_obs.Sink.is_active obs then
    Gb_obs.Sink.incr obs ~by:0 "diff.divergences";
  (* --- reference side: its own memory image, pure timing hooks -------- *)
  let ref_mem = Gb_riscv.Mem.create ~size:config.Gb_system.Processor.mem_size in
  Gb_riscv.Asm.load ref_mem program;
  let mem_size = Gb_riscv.Mem.size ref_mem in
  (* pages the reference wrote since the last sync: the per-sync compare
     set (a full compare every so often catches everything else) *)
  let dirty = Hashtbl.create 64 in
  let note_write ~addr ~size =
    if addr >= 0 && size > 0 then begin
      let last = min (addr + size - 1) (mem_size - 1) in
      for p = addr lsr page_bits to last lsr page_bits do
        Hashtbl.replace dirty p ()
      done
    end
  in
  let ref_hooks =
    {
      Gb_riscv.Interp.mem_extra =
        (fun ~addr ~size ~write ->
          if write then note_write ~addr ~size;
          0);
      flush_line = ignore;
    }
  in
  let ref_interp =
    Gb_riscv.Interp.create ~hooks:ref_hooks ~mem:ref_mem
      ~pc:program.Gb_riscv.Asm.entry ()
  in
  (* --- device under test --------------------------------------------- *)
  let inj =
    Option.map (fun spec -> Gb_system.Inject.create ~obs ~seed spec) inject
  in
  let proc = Gb_system.Processor.create ~config ~obs ?inject:inj program in
  let inj = Gb_system.Processor.inject proc in
  (* a snapshot of an injected oracle run always carries the recovered
     total, at zero when no agreement point was reached *)
  if inj <> None && Gb_obs.Sink.is_active obs then
    Gb_obs.Sink.incr obs ~by:0 "fault.recovered";
  let dbt_interp = Gb_system.Processor.interp proc in
  let dbt_mem = Gb_system.Processor.mem proc in
  let dbt_regs = dbt_interp.Gb_riscv.Interp.regs in
  let ref_regs = ref_interp.Gb_riscv.Interp.regs in
  let reg = Gb_riscv.Regfile.get in
  (* Timing record/replay: rdcycle results observed by the DBT run (in
     guest program order on both tiers — see {!Gb_vliw.Machine}) are fed
     to the reference's rdcycles, so timing is an input of the
     differential run, not compared state. *)
  let cycles = Queue.create () in
  let replay_starved = ref false in
  dbt_interp.Gb_riscv.Interp.rdcycle_hook <-
    Some
      (fun v ->
        Queue.add v cycles;
        v);
  (Gb_system.Processor.machine proc).Gb_vliw.Machine.rdcycle_hook <-
    Some
      (fun v ->
        Queue.add v cycles;
        v);
  ref_interp.Gb_riscv.Interp.rdcycle_hook <-
    Some
      (fun v ->
        match Queue.take_opt cycles with
        | Some recorded -> recorded
        | None ->
          (* the reference executed a rdcycle the DBT run never did *)
          replay_starved := true;
          v);
  (* --- divergence bookkeeping ---------------------------------------- *)
  let divergence = ref None in
  let syncs = ref 0 in
  let tier_of region =
    let e =
      Gb_dbt.Code_cache.peek
        (Gb_dbt.Engine.code_cache (Gb_system.Processor.engine proc))
        region
    in
    if e == Gb_dbt.Code_cache.none then "interp"
    else
      match e.Gb_dbt.Code_cache.e_tier with
      | Gb_dbt.Code_cache.Block -> "block"
      | Gb_dbt.Code_cache.Trace -> "trace"
  in
  let record ~pc ~region ~tier ~kind detail =
    if !divergence = None then begin
      divergence :=
        Some
          { d_pc = pc; d_region = region; d_tier = tier; d_kind = kind;
            d_detail = detail };
      Gb_obs.Sink.incr obs "diff.divergences"
    end
  in
  let regs_mismatch () =
    (* x0 is architecturally zero on both sides; start at x1 like the
       existing trace-vs-interpreter oracle tests *)
    let rec go i =
      if i >= 32 then None
      else if Int64.equal (reg ref_regs i) (reg dbt_regs i) then go (i + 1)
      else Some i
    in
    go 1
  in
  let compare_range ~pc ~region ~tier ~what addr len =
    if
      !divergence = None
      && Gb_riscv.Mem.read_bytes ref_mem ~addr ~len
         <> Gb_riscv.Mem.read_bytes dbt_mem ~addr ~len
    then
      record ~pc ~region ~tier ~kind:"mem"
        (Printf.sprintf "committed memory differs in %s [0x%x,0x%x)" what
           addr (addr + len))
  in
  let compare_dirty ~pc ~region ~tier =
    Hashtbl.iter
      (fun p () ->
        compare_range ~pc ~region ~tier ~what:"dirty page"
          (p lsl page_bits)
          (min (1 lsl page_bits) (mem_size - (p lsl page_bits))))
      dirty;
    Hashtbl.reset dirty
  in
  let compare_full ~pc ~region ~tier =
    compare_range ~pc ~region ~tier ~what:"full image" 0 mem_size
  in
  let compare_output ~pc ~region ~tier =
    if
      !divergence = None
      && Buffer.contents ref_interp.Gb_riscv.Interp.output
         <> Buffer.contents dbt_interp.Gb_riscv.Interp.output
    then
      record ~pc ~region ~tier ~kind:"output"
        (Printf.sprintf "output buffers differ (%d vs %d bytes)"
           (Buffer.length ref_interp.Gb_riscv.Interp.output)
           (Buffer.length dbt_interp.Gb_riscv.Interp.output))
  in
  (* Advance the reference until it reaches the target pc with a matching
     register file. Instruction counts cannot drive this lockstep: the
     machine's guest_insns is a full-pass upper estimate on side exits
     (documented in {!Gb_vliw.Machine}), so state equality is the sync
     criterion. *)
  let advance_to ~region ~tier target =
    let rec go fuel =
      if
        ref_interp.Gb_riscv.Interp.pc = target && regs_mismatch () = None
      then true
      else if fuel <= 0 then begin
        record ~pc:target ~region:(Some region) ~tier ~kind:"sync"
          (Printf.sprintf
             "reference never reached pc 0x%x with matching registers \
              (stopped at pc 0x%x%s)"
             target ref_interp.Gb_riscv.Interp.pc
             (match regs_mismatch () with
             | Some r when ref_interp.Gb_riscv.Interp.pc = target ->
               Printf.sprintf "; x%d = 0x%Lx vs 0x%Lx" r (reg ref_regs r)
                 (reg dbt_regs r)
             | _ -> ""));
        false
      end
      else
        match Gb_riscv.Interp.step ref_interp with
        | si ->
          if si.Gb_riscv.Interp.s_exit <> None then begin
            record ~pc:target ~region:(Some region) ~tier ~kind:"sync"
              (Printf.sprintf
                 "reference exited at pc 0x%x before reaching pc 0x%x"
                 si.Gb_riscv.Interp.s_pc target);
            false
          end
          else go (fuel - 1)
        | exception Gb_riscv.Interp.Trap m ->
          record ~pc:target ~region:(Some region) ~tier ~kind:"trap"
            (Printf.sprintf "reference trapped during sync: %s" m);
          false
        | exception Gb_riscv.Mem.Fault a ->
          record ~pc:target ~region:(Some region) ~tier ~kind:"trap"
            (Printf.sprintf "reference memory fault at 0x%x during sync" a);
          false
    in
    go sync_fuel
  in
  let sync ~region (info : Gb_vliw.Pipeline.exit_info) =
    if !divergence = None then begin
      incr syncs;
      let tier = tier_of region in
      let target = info.Gb_vliw.Pipeline.next_pc in
      if advance_to ~region ~tier target then begin
        compare_dirty ~pc:target ~region:(Some region) ~tier;
        compare_output ~pc:target ~region:(Some region) ~tier;
        if !syncs mod full_compare_every = 0 then
          compare_full ~pc:target ~region:(Some region) ~tier;
        if !replay_starved then
          record ~pc:target ~region:(Some region) ~tier ~kind:"sync"
            "reference executed more rdcycles than the DBT run";
        (* reference and DBT state agree: everything injected so far has
           provably been recovered from *)
        if !divergence = None then
          Option.iter Gb_system.Inject.mark_all_recovered inj
      end
    end
  in
  Gb_system.Processor.set_on_trace_exit proc sync;
  (* --- run both sides ------------------------------------------------- *)
  let fault a = Printf.sprintf "memory fault at 0x%x" a in
  let dbt_result, trap =
    match Gb_system.Processor.run proc with
    | r -> (Some r, None)
    | exception Gb_riscv.Interp.Trap m -> (None, Some m)
    | exception Gb_riscv.Mem.Fault a -> (None, Some (fault a))
  in
  (match (trap, !divergence) with
  | Some m, None ->
    (* did the reference trap identically? equivalence of failures is
       still equivalence *)
    let ref_verdict =
      match
        Gb_riscv.Interp.run
          ~max_insns:
            (Int64.add ref_interp.Gb_riscv.Interp.insn_count
               (Int64.of_int sync_fuel))
          ref_interp
      with
      | code -> Printf.sprintf "reference exited with code %d" code
      | exception Gb_riscv.Interp.Trap m' ->
        if m = m' then "" else Printf.sprintf "reference trapped: %s" m'
      | exception Gb_riscv.Mem.Fault a ->
        if m = fault a then "" else "reference " ^ fault a
    in
    if ref_verdict <> "" then
      record ~pc:dbt_interp.Gb_riscv.Interp.pc ~region:None ~tier:"end"
        ~kind:"trap"
        (Printf.sprintf "DBT run trapped (%s) but %s" m ref_verdict)
  | None, None -> (
    let dbt = Option.get dbt_result in
    (* final sync: reference runs to its own exit, then every piece of
       architectural state must agree *)
    match
      Gb_riscv.Interp.run
        ~max_insns:
          (Int64.add ref_interp.Gb_riscv.Interp.insn_count
             (Int64.of_int sync_fuel))
        ref_interp
    with
    | exception Gb_riscv.Interp.Trap m ->
      record ~pc:ref_interp.Gb_riscv.Interp.pc ~region:None ~tier:"end"
        ~kind:"trap"
        (Printf.sprintf "DBT run exited cleanly but reference trapped: %s" m)
    | exception Gb_riscv.Mem.Fault a ->
      record ~pc:ref_interp.Gb_riscv.Interp.pc ~region:None ~tier:"end"
        ~kind:"trap"
        (Printf.sprintf
           "DBT run exited cleanly but reference faulted at 0x%x" a)
    | ref_exit ->
      let pc = ref_interp.Gb_riscv.Interp.pc in
      if ref_exit <> dbt.Gb_system.Processor.exit_code then
        record ~pc ~region:None ~tier:"end" ~kind:"exit"
          (Printf.sprintf "exit code %d (reference) vs %d (DBT)" ref_exit
             dbt.Gb_system.Processor.exit_code);
      (match regs_mismatch () with
      | Some r ->
        record ~pc ~region:None ~tier:"end" ~kind:"reg"
          (Printf.sprintf "x%d = 0x%Lx (reference) vs 0x%Lx (DBT)" r
             (reg ref_regs r) (reg dbt_regs r))
      | None -> ());
      compare_output ~pc ~region:None ~tier:"end";
      compare_full ~pc ~region:None ~tier:"end";
      if !replay_starved then
        record ~pc ~region:None ~tier:"end" ~kind:"sync"
          "reference executed more rdcycles than the DBT run";
      (* guest insn counts are deliberately NOT compared: the machine's
         guest_insns is an estimate in both directions — a full-pass
         over-count on early side exits, an under-count where the trace
         builder folds unconditional jumps out of the trace — so it
         cannot witness a divergence. State comparison is the gate. *)
      if !divergence = None then
        Option.iter Gb_system.Inject.mark_all_recovered inj)
  | _, Some _ -> ());
  {
    divergence = !divergence;
    syncs = !syncs;
    injected =
      (match inj with Some i -> Gb_system.Inject.injected i | None -> 0);
    recovered =
      (match inj with Some i -> Gb_system.Inject.recovered i | None -> 0);
    ref_insns = ref_interp.Gb_riscv.Interp.insn_count;
    dbt_result;
    trap;
  }

let run_kernel ?config ?obs ?inject ?seed ?full_compare_every program =
  run ?config ?obs ?inject ?seed ?full_compare_every
    (Gb_kernelc.Compile.assemble program)
