(* Tests for the DBT engine: trace construction against a profiled binary,
   the list scheduler's edge/resource guarantees (property-tested over
   random traces), and code generation invariants. *)

let lat = Gb_ir.Latency.default

let res = Gb_dbt.Sched.default_resources

(* --- trace construction ------------------------------------------------ *)

let assemble_loop () =
  (* a loop whose body conditionally skips a store, plus an exit path *)
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  Asm.assemble
    [
      Asm.Label "loop";
      Asm.Insn (Op_imm (ANDI, Reg.t0, Reg.s2, 1));
      Asm.Branch_to (BNE, Reg.t0, Reg.zero, "skip");
      Asm.Insn (Store (D, Reg.s2, Reg.sp, -16));
      Asm.Label "skip";
      Asm.Insn (Op_imm (ADDI, Reg.s2, Reg.s2, 1));
      Asm.Branch_to (BLT, Reg.s2, Reg.s1, "loop");
      Asm.Insn Ecall;
    ]

let load_into_mem program =
  let mem = Gb_riscv.Mem.create ~size:(1 lsl 16) in
  Gb_riscv.Asm.load mem program;
  mem

let trace_follows_bias () =
  let program = assemble_loop () in
  let mem = load_into_mem program in
  let skip_branch = Gb_riscv.Asm.symbol program "loop" + 4 in
  let back_branch = Gb_riscv.Asm.symbol program "skip" + 4 in
  (* profile: skip-branch never taken, back-branch always taken *)
  let profile pc =
    if pc = skip_branch then Some (0, 100)
    else if pc = back_branch then Some (100, 100)
    else None
  in
  let t =
    Gb_dbt.Trace_builder.build Gb_dbt.Trace_builder.default_config ~mem
      ~profile
      ~entry:(Gb_riscv.Asm.symbol program "loop")
  in
  (* the loop unrolls up to the revisit limit *)
  let visits =
    List.length
      (List.filter
         (fun s -> s.Gb_ir.Gtrace.pc = Gb_riscv.Asm.symbol program "loop")
         t.Gb_ir.Gtrace.steps)
  in
  Alcotest.(check int) "unrolled to the visit limit"
    Gb_dbt.Trace_builder.default_config.Gb_dbt.Trace_builder.max_visits visits;
  (* stores are in the trace (biased not-taken skip) *)
  let has_store =
    List.exists
      (fun s ->
        match s.Gb_ir.Gtrace.insn with
        | Gb_riscv.Insn.Store _ -> true
        | _ -> false)
      t.Gb_ir.Gtrace.steps
  in
  Alcotest.(check bool) "store included" true has_store

let trace_stops_at_unbiased () =
  let program = assemble_loop () in
  let mem = load_into_mem program in
  let skip_branch = Gb_riscv.Asm.symbol program "loop" + 4 in
  let profile pc = if pc = skip_branch then Some (50, 100) else None in
  let t =
    Gb_dbt.Trace_builder.build Gb_dbt.Trace_builder.default_config ~mem
      ~profile
      ~entry:(Gb_riscv.Asm.symbol program "loop")
  in
  Alcotest.(check int) "stops before the unbiased branch" 1
    (Gb_ir.Gtrace.length t);
  Alcotest.(check int) "falls back at the branch" skip_branch
    t.Gb_ir.Gtrace.fall_pc

let trace_stops_at_ecall () =
  let open Gb_riscv in
  let program =
    Asm.assemble [ Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t0, Reg.t0, 1)); Asm.Insn Insn.Ecall ]
  in
  let mem = load_into_mem program in
  let t =
    Gb_dbt.Trace_builder.build Gb_dbt.Trace_builder.default_config ~mem
      ~profile:(fun _ -> None) ~entry:program.Asm.entry
  in
  Alcotest.(check int) "one instruction" 1 (Gb_ir.Gtrace.length t);
  Alcotest.(check int) "ends before ecall" (program.Asm.entry + 4)
    t.Gb_ir.Gtrace.fall_pc

let empty_trace_fails () =
  let open Gb_riscv in
  let program = Asm.assemble [ Asm.Insn Insn.Ecall ] in
  let mem = load_into_mem program in
  Alcotest.check_raises "empty trace"
    (Gb_dbt.Trace_builder.Build_failure "empty trace") (fun () ->
      ignore
        (Gb_dbt.Trace_builder.build Gb_dbt.Trace_builder.default_config ~mem
           ~profile:(fun _ -> None) ~entry:program.Asm.entry))

(* --- walks -------------------------------------------------------------- *)

module TB = Gb_dbt.Trace_builder

(* A path with every kind of branch a walk records around the steps it
   does not: straight-line steps, a [jal x0] hop over a dead word, a
   branch biased to fall through, one biased taken over a second dead
   word, and an unbiased branch the walk stops at after fetching it. *)
let assemble_hop () =
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  Asm.assemble
    [
      Asm.Label "entry";
      Asm.Insn (Op_imm (ADDI, Reg.t0, Reg.t0, 1));
      Asm.Jal_to (Reg.zero, "over");
      Asm.Label "dead1";
      Asm.Insn (Op_imm (ADDI, Reg.t1, Reg.t1, 7));
      Asm.Label "over";
      Asm.Branch_to (BEQ, Reg.t0, Reg.t1, "out");
      Asm.Insn (Op_imm (ADDI, Reg.t2, Reg.t2, 1));
      Asm.Branch_to (BNE, Reg.t2, Reg.zero, "tail");
      Asm.Label "dead2";
      Asm.Insn (Op_imm (ADDI, Reg.t3, Reg.t3, 1));
      Asm.Label "tail";
      Asm.Insn (Op_imm (ADDI, Reg.t4, Reg.t4, 1));
      Asm.Branch_to (BLT, Reg.t4, Reg.t5, "entry");
      Asm.Label "out";
      Asm.Insn Ecall;
    ]

(* The hop program's profile as a table the tests edit: the first branch
   falls through, the second is taken, the third is unbiased. *)
let hop_profile program =
  let sym = Gb_riscv.Asm.symbol program in
  let tbl = Hashtbl.create 4 in
  Hashtbl.replace tbl (sym "over") (0, 100);
  Hashtbl.replace tbl (sym "over" + 8) (100, 100);
  Hashtbl.replace tbl (sym "tail" + 4) (50, 100);
  (tbl, fun pc -> Hashtbl.find_opt tbl pc)

let walk_records_every_branch () =
  let program = assemble_hop () in
  let sym = Gb_riscv.Asm.symbol program in
  let mem = load_into_mem program in
  let _, profile = hop_profile program in
  let cfg = TB.default_config in
  let entry = sym "entry" in
  let t, w = TB.build_walk cfg ~mem ~profile ~entry in
  Alcotest.(check bool) "walk recorded with the trace build returns" true
    (t = TB.build cfg ~mem ~profile ~entry);
  Alcotest.(check (list int)) "every branch, the stop included"
    [ sym "over"; sym "over" + 8; sym "tail" + 4 ]
    (Array.to_list w.TB.w_pcs);
  Alcotest.(check (list int)) "directions"
    TB.[ dir_fall; dir_taken; dir_unbiased ]
    (Array.to_list w.TB.w_dirs);
  Alcotest.(check bool) "holds on the same profile" true
    (TB.walk_holds cfg ~profile w);
  (* the end of text ends a walk as a fault, and reads no direction *)
  let last = Gb_riscv.Asm.assemble [ Gb_riscv.Asm.Insn (Gb_riscv.Insn.Op_imm
      (Gb_riscv.Insn.ADDI, Gb_riscv.Reg.t0, Gb_riscv.Reg.t0, 1)) ] in
  let t, w =
    TB.build_walk cfg ~mem:(load_into_mem last) ~profile
      ~entry:last.Gb_riscv.Asm.entry
  in
  Alcotest.(check int) "stops at the end of text" last.Gb_riscv.Asm.text_end
    t.Gb_ir.Gtrace.fall_pc;
  Alcotest.(check int) "no branch read" 0 (Array.length w.TB.w_pcs);
  Alcotest.(check bool) "an empty walk holds" true
    (TB.walk_holds cfg ~profile w)

(* Each recorded branch pushed to either side of the 0.8 bias and of the
   8-sample floor: the walk holds exactly while the direction stays. *)
let walk_rejects_direction_changes () =
  let program = assemble_hop () in
  let sym = Gb_riscv.Asm.symbol program in
  let mem = load_into_mem program in
  let tbl, profile = hop_profile program in
  let cfg = TB.default_config in
  let _, w =
    TB.build_walk cfg ~mem ~profile ~entry:(sym "entry")
  in
  let probe what pc counts expect =
    let saved = Hashtbl.find_opt tbl pc in
    (match counts with
    | Some c -> Hashtbl.replace tbl pc c
    | None -> Hashtbl.remove tbl pc);
    Alcotest.(check bool) what expect (TB.walk_holds cfg ~profile w);
    match saved with
    | Some c -> Hashtbl.replace tbl pc c
    | None -> Hashtbl.remove tbl pc
  in
  let fall = sym "over" and taken = sym "over" + 8 and stop = sym "tail" + 4 in
  probe "fall-through still biased" fall (Some (19, 100)) true;
  probe "fall-through pushed across the bias" fall (Some (21, 100)) false;
  probe "fall-through at the sample floor" fall (Some (0, 8)) true;
  probe "fall-through below the sample floor" fall (Some (0, 7)) false;
  probe "fall-through unprofiled" fall None false;
  probe "taken at the bias" taken (Some (80, 100)) true;
  probe "taken pushed across the bias" taken (Some (79, 100)) false;
  probe "taken at the sample floor" taken (Some (8, 8)) true;
  probe "taken below the sample floor" taken (Some (7, 7)) false;
  probe "stop still unbiased" stop (Some (60, 100)) true;
  probe "stop unprofiled is unbiased too" stop None true;
  probe "stop pushed to taken" stop (Some (100, 100)) false;
  probe "stop pushed to fall-through" stop (Some (0, 100)) false;
  probe "stop biased below the sample floor" stop (Some (7, 7)) true;
  (* a branch off the walk is not an input *)
  probe "branch off the walk" (sym "out") (Some (100, 100)) true;
  Alcotest.(check bool) "restored" true (TB.walk_holds cfg ~profile w)

(* A walk holds no words because text cannot change: a store of any
   width into any word the build fetched (the hop and the stop
   included) or skipped raises [Mem.Fault] at its address, leaves the
   word, and the walk and the trace hold. A store just past text lands. *)
let walk_rejects_code_stores () =
  let check_program name program ~entry profile =
    let mem = load_into_mem program in
    let cfg = TB.default_config in
    let t, w = TB.build_walk cfg ~mem ~profile ~entry in
    let lo = program.Gb_riscv.Asm.base
    and hi = program.Gb_riscv.Asm.text_end in
    for pc = lo / 4 to (hi / 4) - 1 do
      let pc = 4 * pc in
      let word = Gb_riscv.Mem.load_insn_word mem ~addr:pc in
      List.iter
        (fun (addr, size) ->
          Alcotest.check_raises
            (Printf.sprintf "%s: %d-byte store at 0x%x refused" name size addr)
            (Gb_riscv.Mem.Fault addr)
            (fun () ->
              Gb_riscv.Mem.store mem ~addr ~size (Int64.of_int (lnot word))))
        [ (pc, 4); (pc + 3, 1); (pc + 2, 2); (pc, 8); (pc - 4, 8) ];
      Alcotest.(check int) (Printf.sprintf "%s: word at 0x%x kept" name pc)
        word
        (Gb_riscv.Mem.load_insn_word mem ~addr:pc)
    done;
    Gb_riscv.Mem.store mem ~addr:hi ~size:8 (-1L);
    Alcotest.(check bool) (name ^ ": walk holds") true
      (TB.walk_holds cfg ~profile w);
    Alcotest.(check bool) (name ^ ": same trace") true
      (t = TB.build cfg ~mem ~profile ~entry)
  in
  let hop = assemble_hop () in
  let sym = Gb_riscv.Asm.symbol hop in
  check_program "hop" hop ~entry:(sym "entry") (snd (hop_profile hop));
  (* the unrolled loop stops at the revisit limit without a fetch *)
  let loop = assemble_loop () in
  let sym = Gb_riscv.Asm.symbol loop in
  let skip_branch = sym "loop" + 4 and back_branch = sym "skip" + 4 in
  check_program "loop" loop ~entry:(sym "loop") (fun pc ->
      if pc = skip_branch then Some (0, 100)
      else if pc = back_branch then Some (100, 100)
      else None)

(* Random kernels, run to a real profile, then random edits to that
   profile around each trace, and random stores into the words there:
   whenever the check accepts, a fresh build forms the trace the walk
   was recorded with, step for step, and every store into text is
   refused. *)
let walk_check_sound_prop =
  let edit =
    QCheck.Gen.(
      oneof
        [
          map3 (fun i taken total -> `Bias (i, taken, total)) nat
            (int_bound 40) (int_bound 40);
          map2 (fun i k -> `Scale (i, k)) nat (int_range 2 4);
          map2 (fun i bit -> `Flip (i, bit)) nat (int_bound 31);
          map (fun i -> `Rewrite i) nat;
        ])
  in
  QCheck.Test.make ~count:20
    ~name:"walk check accepts only walks a fresh build repeats"
    (QCheck.make
       QCheck.Gen.(pair Random_kernel.gen (list_size (int_range 1 6) edit)))
    (fun (program, edits) ->
      let asm = Gb_kernelc.Compile.assemble program in
      let p = Pinned.processor Gb_core.Mitigation.Fine_grained asm in
      ignore (Gb_system.Processor.run p);
      let eng = Gb_system.Processor.engine p in
      let mem = Gb_system.Processor.mem p in
      let cfg = (Gb_dbt.Engine.config eng).Gb_dbt.Engine.trace_cfg in
      let text_hi = Gb_riscv.Mem.text_hi mem in
      let over = Hashtbl.create 8 in
      let profile pc =
        match Hashtbl.find_opt over pc with
        | Some counts -> counts
        | None -> Gb_dbt.Engine.branch_profile eng pc
      in
      List.for_all
        (fun (region : Gb_dbt.Engine.region) ->
          let entry = region.Gb_dbt.Engine.r_entry in
          match TB.build_walk cfg ~mem ~profile ~entry with
          | exception TB.Build_failure _ -> true
          | t, w ->
            if not (TB.walk_holds cfg ~profile w) then
              QCheck.Test.fail_reportf "0x%x: walk fails right after its build"
                entry;
            (* the edits touch the trace's span and a few words past it *)
            let pcs =
              List.map (fun st -> st.Gb_ir.Gtrace.pc) t.Gb_ir.Gtrace.steps
            in
            let lo = List.fold_left min entry pcs in
            let hi = List.fold_left max entry pcs + 16 in
            let pc_of i = lo + (4 * (i mod (((hi - lo) / 4) + 1))) in
            (* a store into text is refused, a store past it is not made *)
            let set_word pc word =
              if pc < text_hi then
                match Gb_riscv.Mem.store_int mem ~addr:pc ~size:4 word with
                | () -> QCheck.Test.fail_reportf "store at 0x%x accepted" pc
                | exception Gb_riscv.Mem.Fault a when a = pc -> ()
            in
            List.iter
              (function
                | `Bias (i, taken, total) ->
                  Hashtbl.replace over (pc_of i)
                    (if total = 0 then None else Some (min taken total, total))
                | `Scale (i, k) ->
                  let pc = pc_of i in
                  Hashtbl.replace over pc
                    (Option.map (fun (a, b) -> (a * k, b * k)) (profile pc))
                | `Flip (i, bit) ->
                  let pc = pc_of i in
                  set_word pc
                    (Gb_riscv.Mem.load_insn_word mem ~addr:pc lxor (1 lsl bit))
                | `Rewrite i ->
                  let pc = pc_of i in
                  set_word pc (Gb_riscv.Mem.load_insn_word mem ~addr:pc))
              edits;
            let sound =
              (not (TB.walk_holds cfg ~profile w))
              ||
              match TB.build cfg ~mem ~profile ~entry with
              | t' -> t' = t
              | exception TB.Build_failure _ -> false
            in
            Hashtbl.reset over;
            sound)
        (Gb_dbt.Engine.regions eng))

(* --- scheduler --------------------------------------------------------- *)

(* reuse the random guest-trace generator idea from the IR tests *)
let arb_gtrace =
  let open QCheck.Gen in
  let reg = int_range 1 15 in
  let gen_step pc =
    let open Gb_riscv.Insn in
    frequency
      [
        (4, map3 (fun rd rs1 rs2 -> Op (ADD, rd, rs1, rs2)) reg reg reg);
        (2, map3 (fun rd rs1 rs2 -> Op (MUL, rd, rs1, rs2)) reg reg reg);
        (1, map3 (fun rd rs1 rs2 -> Op (DIV, rd, rs1, rs2)) reg reg reg);
        (2, map2 (fun rd rs1 -> Load (D, false, rd, rs1, 0)) reg reg);
        (2, map2 (fun rs2 rs1 -> Store (D, rs2, rs1, 0)) reg reg);
        (1, return (Rdcycle 5));
        (2, map2 (fun rs1 rs2 -> Branch (BEQ, rs1, rs2, 64)) reg reg);
      ]
    >|= fun insn ->
    let exit_cond =
      match insn with
      | Branch (cond, _, _, off) -> Some (cond, pc + off)
      | _ -> None
    in
    { Gb_ir.Gtrace.pc; insn; exit_cond }
  in
  let* n = int_range 1 50 in
  let* steps = flatten_l (List.init n (fun i -> gen_step (0x1000 + (4 * i)))) in
  return { Gb_ir.Gtrace.entry = 0x1000; steps; fall_pc = 0x1000 + (4 * n) }

let arb_mode = QCheck.Gen.oneofl Gb_core.Mitigation.all_modes

let build_and_schedule (trace, mode) =
  let opt = Gb_core.Mitigation.opt_of_mode mode in
  let g = Gb_ir.Build.build ~opt ~lat trace in
  let _ = Gb_core.Mitigation.apply mode ~lat g in
  let cycles = Gb_dbt.Sched.schedule res ~lat g in
  (g, cycles)

let schedule_respects_edges_prop =
  QCheck.Test.make ~count:400 ~name:"schedule respects every edge"
    (QCheck.make QCheck.Gen.(pair arb_gtrace arb_mode))
    (fun input ->
      let g, cycles = build_and_schedule input in
      List.for_all
        (fun e ->
          cycles.(e.Gb_ir.Dfg.e_to)
          >= cycles.(e.Gb_ir.Dfg.e_from) + e.Gb_ir.Dfg.e_lat)
        (Gb_ir.Dfg.edges g))

let schedule_respects_resources_prop =
  QCheck.Test.make ~count:400 ~name:"schedule respects resource limits"
    (QCheck.make QCheck.Gen.(pair arb_gtrace arb_mode))
    (fun input ->
      let g, cycles = build_and_schedule input in
      let n_cycles = 1 + Array.fold_left max 0 cycles in
      let total = Array.make n_cycles 0 in
      let mem = Array.make n_cycles 0 in
      let mul = Array.make n_cycles 0 in
      let branch = Array.make n_cycles 0 in
      Gb_ir.Dfg.iter_nodes g (fun node ->
          let c = cycles.(node.Gb_ir.Dfg.id) in
          total.(c) <- total.(c) + 1;
          match Gb_dbt.Sched.classify node.Gb_ir.Dfg.kind with
          | Gb_dbt.Sched.Mem_class -> mem.(c) <- mem.(c) + 1
          | Gb_dbt.Sched.Mul_class -> mul.(c) <- mul.(c) + 1
          | Gb_dbt.Sched.Branch_class -> branch.(c) <- branch.(c) + 1
          | Gb_dbt.Sched.Alu_class -> ());
      let ok = ref true in
      for c = 0 to n_cycles - 1 do
        if total.(c) > res.Gb_dbt.Sched.width
           || mem.(c) > res.Gb_dbt.Sched.mem_slots
           || mul.(c) > res.Gb_dbt.Sched.mul_slots
           || branch.(c) > res.Gb_dbt.Sched.branch_slots
        then ok := false
      done;
      !ok)

let exit_scheduled_last_prop =
  QCheck.Test.make ~count:200 ~name:"trace exit is scheduled last"
    (QCheck.make QCheck.Gen.(pair arb_gtrace arb_mode))
    (fun input ->
      let g, cycles = build_and_schedule input in
      let exit_id = ref (-1) in
      Gb_ir.Dfg.iter_nodes g (fun n ->
          match n.Gb_ir.Dfg.kind with
          | Gb_ir.Dfg.Kexit -> exit_id := n.Gb_ir.Dfg.id
          | _ -> ());
      let last = Array.fold_left max 0 cycles in
      cycles.(!exit_id) = last)

(* The heap-based ready pool against the Set-based reference
   (test/sched_reference.ml): identical cycle arrays. Every generated
   trace runs under all five modes, so the mitigation's appended mask and
   fence nodes, whose ids sit after the nodes that depend on them, are
   in the graphs. *)
let schedule_matches_reference_prop =
  QCheck.Test.make ~count:200 ~name:"heap scheduler = Set-based reference"
    (QCheck.make arb_gtrace) (fun trace ->
      List.for_all
        (fun mode ->
          let g, cycles = build_and_schedule (trace, mode) in
          cycles = Sched_reference.schedule res ~lat g)
        Gb_core.Mitigation.all_modes)

let check_matches_reference name ?(res = res) g =
  Alcotest.(check (array int))
    name
    (Sched_reference.schedule res ~lat g)
    (Gb_dbt.Sched.schedule res ~lat g)

let schedule_degenerate () =
  let open Gb_ir in
  (* a single node *)
  let g = Dfg.create () in
  ignore (Dfg.add_node g ~kind:Dfg.Kexit ~srcs:[||] ~guest_pc:0 ());
  check_matches_reference "single node" g;
  (* a lat-0 load -> store edge: with two memory ports both land in one
     bundle *)
  let g = Dfg.create () in
  let spec =
    { Dfg.tag = None; spec_prev_store = None; spec_prev_branch = None;
      constrained = false }
  in
  let ld =
    Dfg.add_node g
      ~kind:(Dfg.Kload (Gb_riscv.Insn.D, false, spec))
      ~srcs:[| Dfg.Reg_in 1 |] ~guest_pc:0 ()
  in
  let st =
    Dfg.add_node g ~kind:(Dfg.Kstore Gb_riscv.Insn.D)
      ~srcs:[| Dfg.Reg_in 2; Dfg.Reg_in 3 |] ~guest_pc:4 ()
  in
  Dfg.add_edge g ~from:ld ~to_:st ~lat:0 ~kind:Dfg.Emem;
  let two_ports = { res with Gb_dbt.Sched.mem_slots = 2 } in
  check_matches_reference "lat-0 edge" ~res:two_ports g;
  let cycles = Gb_dbt.Sched.schedule two_ports ~lat g in
  Alcotest.(check int) "load and store share a bundle" cycles.(ld) cycles.(st);
  (* a pool holding only branch-class nodes *)
  let g = Dfg.create () in
  let exits =
    List.init 4 (fun i ->
        Dfg.add_node g ~kind:(Dfg.Kbranch Gb_riscv.Insn.BEQ)
          ~srcs:[| Dfg.Reg_in 1; Dfg.Reg_in 2 |]
          ~exit_pc:0x100 ~guest_pc:(4 * i) ())
  in
  let last = Dfg.add_node g ~kind:Dfg.Kexit ~srcs:[||] ~guest_pc:16 () in
  List.iter
    (fun b -> Dfg.add_edge g ~from:b ~to_:last ~lat:1 ~kind:Dfg.Ectrl)
    exits;
  check_matches_reference "branch-only pool" g;
  (* a dependency cycle is refused before any scheduling *)
  let g = Dfg.create () in
  let a = Dfg.add_node g ~kind:Dfg.Kfence ~srcs:[||] ~guest_pc:0 () in
  let b = Dfg.add_node g ~kind:Dfg.Kfence ~srcs:[||] ~guest_pc:4 () in
  Dfg.add_edge g ~from:a ~to_:b ~lat:1 ~kind:Dfg.Ectrl;
  Dfg.add_edge g ~from:b ~to_:a ~lat:1 ~kind:Dfg.Ectrl;
  Alcotest.check_raises "cycle" Gb_dbt.Sched.Cyclic (fun () ->
      ignore (Gb_dbt.Sched.schedule res ~lat g))

(* --- codegen ----------------------------------------------------------- *)

let emit (trace, mode) =
  let opt = Gb_core.Mitigation.opt_of_mode mode in
  let g = Gb_ir.Build.build ~opt ~lat trace in
  let _ = Gb_core.Mitigation.apply mode ~lat g in
  let cycles = Gb_dbt.Sched.schedule res ~lat g in
  Gb_dbt.Codegen.emit res ~n_hidden:96 ~cycles ~entry_pc:trace.Gb_ir.Gtrace.entry
    ~guest_insns:(Gb_ir.Gtrace.length trace)
    ~meta:Gb_vliw.Vinsn.empty_meta g

let codegen_invariants_prop =
  QCheck.Test.make ~count:300 ~name:"codegen: width, one control op, stubs"
    (QCheck.make QCheck.Gen.(pair arb_gtrace arb_mode))
    (fun input ->
      let t = emit input in
      let ok = ref true in
      Array.iter
        (fun bundle ->
          if Array.length bundle <> res.Gb_dbt.Sched.width then ok := false;
          let controls =
            Array.to_list bundle
            |> List.filter (fun op ->
                   match op with
                   | Gb_vliw.Vinsn.Branch _ | Gb_vliw.Vinsn.Chk _
                   | Gb_vliw.Vinsn.Exit _ ->
                     true
                   | _ -> false)
          in
          if List.length controls > 1 then ok := false)
        t.Gb_vliw.Vinsn.bundles;
      (* the final bundle carries the unconditional exit *)
      let last = t.Gb_vliw.Vinsn.bundles.(Array.length t.Gb_vliw.Vinsn.bundles - 1) in
      let has_exit =
        Array.exists
          (fun op -> match op with Gb_vliw.Vinsn.Exit _ -> true | _ -> false)
          last
      in
      (* stubs only commit architectural registers *)
      Array.iter
        (fun stub ->
          List.iter
            (fun (r, _) ->
              if r < 1 || r >= Gb_vliw.Vinsn.guest_regs then ok := false)
            stub.Gb_vliw.Vinsn.commits)
        t.Gb_vliw.Vinsn.stubs;
      !ok && has_exit)

let register_pressure_failure () =
  (* with almost no hidden registers, codegen must refuse rather than emit
     wrong code *)
  let open Gb_riscv.Insn in
  let steps =
    List.init 30 (fun i ->
        { Gb_ir.Gtrace.pc = 0x1000 + (4 * i);
          insn = Op (ADD, 1 + (i mod 15), 1, 2);
          exit_cond = None })
  in
  let trace = { Gb_ir.Gtrace.entry = 0x1000; steps; fall_pc = 0x1000 + 120 } in
  let g = Gb_ir.Build.build ~opt:Gb_ir.Opt_config.aggressive ~lat trace in
  let cycles = Gb_dbt.Sched.schedule res ~lat g in
  Alcotest.check_raises "out of registers" Gb_dbt.Codegen.Out_of_registers
    (fun () ->
      ignore
        (Gb_dbt.Codegen.emit res ~n_hidden:1 ~cycles ~entry_pc:0x1000
           ~guest_insns:30 ~meta:Gb_vliw.Vinsn.empty_meta g))

(* --- trace-level differential oracle ------------------------------------ *)

(* Compile a random guest trace to VLIW and execute it; separately run the
   golden interpreter over the same instruction bytes from the same
   initial state until it leaves the trace's pc range. Architectural
   registers, memory and the resume pc must agree for every mitigation
   mode. (rdcycle/cflush are excluded: the clock differs by construction.) *)

let arb_oracle_trace =
  let open QCheck.Gen in
  (* destinations never overlap the address bases, so load/store addresses
     stay inside the data region for both executions *)
  let reg = int_range 1 8 in
  let src = int_range 1 15 in
  let base = int_range 9 15 in
  let gen_step pc =
    let open Gb_riscv.Insn in
    frequency
      [
        (5, map3 (fun rd rs1 rs2 -> Op (ADD, rd, rs1, rs2)) reg src src);
        (2, map3 (fun rd rs1 rs2 -> Op (MUL, rd, rs1, rs2)) reg src src);
        (2, map3 (fun rd rs1 rs2 -> Op (XOR, rd, rs1, rs2)) reg src src);
        (1, map3 (fun rd rs1 rs2 -> Op (DIVU, rd, rs1, rs2)) reg src src);
        (2, map3 (fun rd rs1 imm -> Op_imm (ANDI, rd, rs1, imm)) reg src
             (int_range 0 255));
        (2, map2 (fun rd rs1 -> Load (D, false, rd, rs1, 0)) reg base);
        (1, map2 (fun rd rs1 -> Load (B, true, rd, rs1, 0)) reg base);
        (2, map2 (fun rs2 rs1 -> Store (D, rs2, rs1, 0)) src base);
        (2, map2 (fun rs1 rs2 -> Branch (BEQ, rs1, rs2, 512)) src src);
        (1, map2 (fun rs1 rs2 -> Branch (BLT, rs1, rs2, 512)) src src);
      ]
    >|= fun insn ->
    let exit_cond =
      match insn with
      | Branch (cond, _, _, off) -> Some (cond, pc + off)
      | _ -> None
    in
    { Gb_ir.Gtrace.pc; insn; exit_cond }
  in
  let* n = int_range 1 40 in
  let* steps = flatten_l (List.init n (fun i -> gen_step (0x1000 + (4 * i)))) in
  let* seeds = list_size (return 15) (int_range 0 2047) in
  let* mode = oneofl Gb_core.Mitigation.all_modes in
  return ({ Gb_ir.Gtrace.entry = 0x1000; steps; fall_pc = 0x1000 + (4 * n) },
          seeds, mode)

let trace_oracle_prop =
  QCheck.Test.make ~count:300 ~name:"trace execution = interpreter (oracle)"
    (QCheck.make arb_oracle_trace)
    (fun (gtrace, seeds, mode) ->
      let mem_size = 1 lsl 16 in
      (* data region for the random base registers: aligned, in range *)
      let init_regs = Gb_riscv.Regfile.create 128 in
      List.iteri
        (fun i s ->
          Gb_riscv.Regfile.set init_regs (i + 1)
            (Int64.of_int (0x4000 + (8 * s))))
        seeds;
      (* write the instruction bytes, then declare them text *)
      let make_mem () =
        let mem = Gb_riscv.Mem.create ~size:mem_size in
        List.iter
          (fun st ->
            Gb_riscv.Mem.store mem ~addr:st.Gb_ir.Gtrace.pc ~size:4
              (Int64.of_int (Gb_riscv.Encode.encode st.Gb_ir.Gtrace.insn)))
          gtrace.Gb_ir.Gtrace.steps;
        Gb_riscv.Mem.set_text mem ~lo:gtrace.Gb_ir.Gtrace.entry
          ~hi:gtrace.Gb_ir.Gtrace.fall_pc;
        mem
      in
      (* oracle: the reference interpreter until it leaves the trace *)
      let interp_mem = make_mem () in
      let interp_regs = Gb_riscv.Regfile.copy init_regs in
      let interp =
        Gb_riscv.Interp.create ~regs:interp_regs ~mem:interp_mem ~pc:0x1000 ()
      in
      let lo = gtrace.Gb_ir.Gtrace.entry and hi = gtrace.Gb_ir.Gtrace.fall_pc in
      let rec run_interp budget =
        if budget = 0 then failwith "oracle ran away"
        else if interp.Gb_riscv.Interp.pc < lo || interp.Gb_riscv.Interp.pc >= hi
        then interp.Gb_riscv.Interp.pc
        else begin
          ignore (Gb_riscv.Interp.step interp);
          run_interp (budget - 1)
        end
      in
      let oracle_pc = run_interp 1000 in
      (* device under test: build, mitigate, schedule, emit, execute *)
      let opt = Gb_core.Mitigation.opt_of_mode mode in
      let g = Gb_ir.Build.build ~opt ~lat gtrace in
      let _ = Gb_core.Mitigation.apply mode ~lat g in
      let cycles = Gb_dbt.Sched.schedule res ~lat g in
      let trace =
        Gb_dbt.Codegen.emit res ~n_hidden:96 ~cycles ~entry_pc:0x1000
          ~guest_insns:(Gb_ir.Gtrace.length gtrace)
          ~meta:Gb_vliw.Vinsn.empty_meta g
      in
      let vliw_mem = make_mem () in
      let hier = Gb_cache.Hierarchy.create Gb_cache.Hierarchy.default_config in
      let clock = ref 0 in
      let vliw_regs = Gb_riscv.Regfile.copy init_regs in
      let machine =
        Gb_vliw.Machine.create ~mem:vliw_mem ~hier ~clock ~regs:vliw_regs ()
      in
      (* a rollback exits mid-trace at a pc inside the range: finish the
         remainder on the interpreter semantics, as the real system does *)
      let rec settle budget pc =
        if pc < lo || pc >= hi then pc
        else if budget = 0 then failwith "settle ran away"
        else begin
          let fixup =
            Gb_riscv.Interp.create ~regs:vliw_regs ~mem:vliw_mem ~pc ()
          in
          ignore (Gb_riscv.Interp.step fixup);
          settle (budget - 1) fixup.Gb_riscv.Interp.pc
        end
      in
      Gb_vliw.Pipeline.decode trace;
      let first_exit = (Gb_vliw.Pipeline.run machine trace).Gb_vliw.Pipeline.next_pc in
      let vliw_pc = settle 1000 first_exit in
      let regs_agree =
        List.for_all
          (fun r ->
            Int64.equal
              (Gb_riscv.Regfile.get interp_regs r)
              (Gb_riscv.Regfile.get vliw_regs r))
          (List.init 31 (fun i -> i + 1))
      in
      let mem_agree =
        Gb_riscv.Mem.read_bytes interp_mem ~addr:0x4000 ~len:0x5000
        = Gb_riscv.Mem.read_bytes vliw_mem ~addr:0x4000 ~len:0x5000
      in
      oracle_pc = vliw_pc && regs_agree && mem_agree)

(* --- first-level translation -------------------------------------------- *)

let first_pass_machine () =
  let mem = Gb_riscv.Mem.create ~size:(1 lsl 16) in
  let hier = Gb_cache.Hierarchy.create Gb_cache.Hierarchy.default_config in
  let clock = ref 0 in
  (mem, Gb_vliw.Machine.create ~mem ~hier ~clock ())

let first_pass_straight_line () =
  let open Gb_riscv in
  let program =
    Asm.assemble
      [
        Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t0, Reg.zero, 5));
        Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t1, Reg.t0, 7));
        Asm.Insn (Insn.Op (Insn.MUL, Reg.t2, Reg.t0, Reg.t1));
        Asm.Insn Insn.Ecall;
      ]
  in
  let mem, machine = first_pass_machine () in
  Asm.load mem program;
  let { Gb_dbt.First_pass.trace; branch_pc; _ } =
    Gb_dbt.First_pass.translate ~mem ~entry:program.Asm.entry
  in
  Alcotest.(check (option int)) "no terminal branch" None branch_pc;
  Alcotest.(check int) "one op per insn plus exit" 4
    (Array.length trace.Gb_vliw.Vinsn.bundles);
  Gb_vliw.Pipeline.decode trace;
  let info = Gb_vliw.Pipeline.run machine trace in
  Alcotest.(check int) "exits before the ecall" (program.Asm.entry + 12)
    info.Gb_vliw.Pipeline.next_pc;
  (* guest registers written directly, no stub needed *)
  Alcotest.(check int64) "t2 = 5 * 12" 60L
    (Gb_riscv.Regfile.get machine.Gb_vliw.Machine.regs Reg.t2)

let first_pass_branch_block () =
  let open Gb_riscv in
  let program =
    Asm.assemble
      [
        Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t0, Reg.t0, 1));
        Asm.Insn (Insn.Branch (Insn.BLT, Reg.t0, Reg.t1, 64));
        Asm.Insn Insn.Ecall;
      ]
  in
  let mem, machine = first_pass_machine () in
  Asm.load mem program;
  let { Gb_dbt.First_pass.trace; branch_pc; _ } =
    Gb_dbt.First_pass.translate ~mem ~entry:program.Asm.entry
  in
  Alcotest.(check (option int)) "terminal branch recorded"
    (Some (program.Asm.entry + 4)) branch_pc;
  Gb_vliw.Pipeline.decode trace;
  (* taken path: t0 < t1 *)
  Gb_riscv.Regfile.set machine.Gb_vliw.Machine.regs Reg.t1 100L;
  let info = Gb_vliw.Pipeline.run machine trace in
  Alcotest.(check int) "taken target" (program.Asm.entry + 4 + 64)
    info.Gb_vliw.Pipeline.next_pc;
  Alcotest.(check bool) "taken = side exit" true
    (info.Gb_vliw.Pipeline.kind = Gb_vliw.Pipeline.Side_exit);
  (* fall-through path *)
  Gb_riscv.Regfile.set machine.Gb_vliw.Machine.regs Reg.t1 (-100L);
  let info = Gb_vliw.Pipeline.run machine trace in
  Alcotest.(check int) "fall-through target" (program.Asm.entry + 8)
    info.Gb_vliw.Pipeline.next_pc;
  Alcotest.(check bool) "fall-through kind" true
    (info.Gb_vliw.Pipeline.kind = Gb_vliw.Pipeline.Fallthrough)

let first_pass_untranslatable () =
  let open Gb_riscv in
  let program = Asm.assemble [ Asm.Insn Insn.Ecall ] in
  let mem, _ = first_pass_machine () in
  Asm.load mem program;
  Alcotest.check_raises "ecall at entry"
    (Gb_dbt.First_pass.Untranslatable "block starts with jalr/ecall")
    (fun () ->
      ignore (Gb_dbt.First_pass.translate ~mem ~entry:program.Asm.entry))

(* The first-pass twin of "walk rejects code stores". A block is a
   function of text words alone, and text refuses every store: a store
   into any word the block fetched (the stop included) or skipped raises
   [Mem.Fault] at its address and changes nothing, so once the block is
   evicted, every re-promotion reinstalls the block stored at its
   entry. *)
let block_walk_rejects_code_stores () =
  let open Gb_riscv in
  let module E = Gb_dbt.Engine in
  let module FP = Gb_dbt.First_pass in
  let program =
    Asm.assemble
      [
        Asm.Label "entry";
        Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t0, Reg.t0, 1));
        Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t1, Reg.t1, 2));
        Asm.Insn Insn.Ecall;
        Asm.Label "dead";
        Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t2, Reg.t2, 3));
        Asm.Label "other";
        Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t3, Reg.t3, 1));
        Asm.Branch_to (Insn.BEQ, Reg.t3, Reg.t4, "entry");
        Asm.Insn Insn.Ecall;
      ]
  in
  let sym = Asm.symbol program in
  let entry = sym "entry" and other = sym "other" in
  let mem = load_into_mem program in
  let block = (FP.translate ~mem ~entry).FP.trace in
  (* every arrival promotes to the first-pass tier, and a one-bundle
     cache holds one block at a time *)
  let eng =
    E.create ~mem
      { E.default_config with
        E.first_pass_threshold = 1;
        hot_threshold = max_int;
        verify = E.Verify_enforce;
        cache = { Gb_dbt.Code_cache.default_config with capacity = 1 } }
  in
  let s = E.stats eng in
  (* the block at [other] evicts the one at [entry]; the number of
     blocks reused by the promotion at [entry] comes with its code *)
  let promote () =
    E.record_block_entry eng other;
    Alcotest.(check bool) "evicted" true (E.lookup eng entry = None);
    let n = s.E.blocks_reused in
    E.record_block_entry eng entry;
    (Option.get (E.lookup eng entry), s.E.blocks_reused - n)
  in
  let code, reuses = promote () in
  Alcotest.(check int) "first arrival: not reused" 0 reuses;
  Alcotest.(check bool) "first arrival: the block of the words" true
    (code.Gb_vliw.Vinsn.bundles = block.Gb_vliw.Vinsn.bundles);
  List.iter
    (fun pc ->
      let what = Printf.sprintf "store at 0x%x" pc in
      let word = Mem.load_insn_word mem ~addr:pc in
      Alcotest.check_raises (what ^ " refused") (Mem.Fault pc) (fun () ->
          Mem.store_int mem ~addr:pc ~size:4 (word lxor (1 lsl 20)));
      Alcotest.(check int) (what ^ ": word kept") word
        (Mem.load_insn_word mem ~addr:pc);
      let before = Option.get (E.lookup eng entry) in
      let code, reuses = promote () in
      Alcotest.(check int) (what ^ ": reused") 1 reuses;
      Alcotest.(check bool) (what ^ ": the stored block") true (code == before))
    [ entry; entry + 4; entry + 8; sym "dead"; other + 8 ];
  Alcotest.(check int) "every install gated or booked"
    s.E.first_pass_translations s.E.verify_checked

(* Property: a first-pass block and the interpreter agree on registers and
   memory over random straight-line code. *)
let first_pass_differential_prop =
  let arb =
    QCheck.make
      QCheck.Gen.(
        pair
          (list_size (int_range 1 30)
             (oneof
                [
                  map3
                    (fun op rd (rs1, rs2) -> Gb_riscv.Insn.Op (op, rd, rs1, rs2))
                    (oneofl Gb_riscv.Insn.[ ADD; SUB; XOR; MUL; AND; OR ])
                    (int_range 1 8)
                    (pair (int_range 1 15) (int_range 1 15));
                  map2
                    (fun rd base -> Gb_riscv.Insn.Load (Gb_riscv.Insn.D, false, rd, base, 0))
                    (int_range 1 8) (int_range 9 15);
                  map2
                    (fun src base -> Gb_riscv.Insn.Store (Gb_riscv.Insn.D, src, base, 0))
                    (int_range 1 15) (int_range 9 15);
                ]))
          (list_size (return 15) (int_range 0 1023)))
  in
  QCheck.Test.make ~count:200 ~name:"first-pass = interpreter" arb
    (fun (insns, seeds) ->
      let program =
        Gb_riscv.Asm.assemble
          (List.map (fun i -> Gb_riscv.Asm.Insn i) insns
          @ [ Gb_riscv.Asm.Insn Gb_riscv.Insn.Ecall ])
      in
      let init_regs = Gb_riscv.Regfile.create 128 in
      List.iteri
        (fun i s ->
          Gb_riscv.Regfile.set init_regs (i + 1)
            (Int64.of_int (0x4000 + (8 * s))))
        seeds;
      let setup () =
        let mem = Gb_riscv.Mem.create ~size:(1 lsl 16) in
        Gb_riscv.Asm.load mem program;
        (mem, Gb_riscv.Regfile.copy init_regs)
      in
      (* interpreter *)
      let imem, iregs = setup () in
      let interp =
        Gb_riscv.Interp.create ~regs:iregs ~mem:imem ~pc:program.Gb_riscv.Asm.entry ()
      in
      List.iter (fun _ -> ignore (Gb_riscv.Interp.step interp)) insns;
      (* first-pass block *)
      let vmem, vregs = setup () in
      let hier = Gb_cache.Hierarchy.create Gb_cache.Hierarchy.default_config in
      let clock = ref 0 in
      let machine = Gb_vliw.Machine.create ~mem:vmem ~hier ~clock ~regs:vregs () in
      let { Gb_dbt.First_pass.trace; _ } =
        Gb_dbt.First_pass.translate ~mem:vmem ~entry:program.Gb_riscv.Asm.entry
      in
      Gb_vliw.Pipeline.decode trace;
      let info = Gb_vliw.Pipeline.run machine trace in
      info.Gb_vliw.Pipeline.next_pc = interp.Gb_riscv.Interp.pc
      && List.for_all
           (fun r ->
             Int64.equal (Gb_riscv.Regfile.get iregs r)
               (Gb_riscv.Regfile.get vregs r))
           (List.init 31 (fun i -> i + 1))
      && Gb_riscv.Mem.read_bytes imem ~addr:0x4000 ~len:0x3000
         = Gb_riscv.Mem.read_bytes vmem ~addr:0x4000 ~len:0x3000)

(* Property: first-pass blocks never contain speculative loads or hidden
   registers — the tier is Spectre-free by construction. *)
let first_pass_never_speculates_prop =
  let arb =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 20)
          (oneof
             [
               map3
                 (fun rd rs1 imm -> Gb_riscv.Insn.Op_imm (Gb_riscv.Insn.ADDI, rd, rs1, imm))
                 (int_range 1 31) (int_range 0 31) (int_range (-100) 100);
               map2
                 (fun rd rs1 -> Gb_riscv.Insn.Load (Gb_riscv.Insn.D, false, rd, rs1, 0))
                 (int_range 1 31) (int_range 0 31);
               map2
                 (fun rs2 rs1 -> Gb_riscv.Insn.Store (Gb_riscv.Insn.D, rs2, rs1, 0))
                 (int_range 0 31) (int_range 0 31);
             ]))
  in
  QCheck.Test.make ~count:200 ~name:"first-pass blocks never speculate" arb
    (fun insns ->
      let program =
        Gb_riscv.Asm.assemble
          (List.map (fun i -> Gb_riscv.Asm.Insn i) insns
          @ [ Gb_riscv.Asm.Insn Gb_riscv.Insn.Ecall ])
      in
      let mem = Gb_riscv.Mem.create ~size:(1 lsl 16) in
      Gb_riscv.Asm.load mem program;
      let { Gb_dbt.First_pass.trace; _ } =
        Gb_dbt.First_pass.translate ~mem ~entry:program.Gb_riscv.Asm.entry
      in
      trace.Gb_vliw.Vinsn.n_regs = Gb_vliw.Vinsn.guest_regs
      && Array.for_all
           (fun bundle ->
             Array.for_all
               (fun op ->
                 match op with
                 | Gb_vliw.Vinsn.Load { spec = Some _; _ }
                 | Gb_vliw.Vinsn.Chk _ ->
                   false
                 | _ -> true)
               bundle)
           trace.Gb_vliw.Vinsn.bundles)

(* --- engine ------------------------------------------------------------ *)

let engine_tier_precedence () =
  (* once a pc has both a first-level block and an optimized trace, lookup
     must serve the optimized one *)
  let program = assemble_loop () in
  let mem = load_into_mem program in
  let engine = Gb_dbt.Engine.create Gb_dbt.Engine.default_config ~mem in
  let entry = Gb_riscv.Asm.symbol program "loop" in
  (* warm: first-level only *)
  for _ = 1 to 5 do
    Gb_dbt.Engine.record_block_entry engine entry
  done;
  let block = Gb_dbt.Engine.lookup engine entry in
  Alcotest.(check bool) "block tier serves" true (block <> None);
  Alcotest.(check int) "single-op bundles" 1
    (Array.length (Option.get block).Gb_vliw.Vinsn.bundles.(0));
  (* hot: optimized trace replaces it *)
  ignore (Gb_dbt.Engine.translate engine entry);
  let trace = Gb_dbt.Engine.lookup engine entry in
  Alcotest.(check bool) "optimized tier serves" true
    ((Option.get trace).Gb_vliw.Vinsn.bundles.(0) |> Array.length > 1)

let engine_caches_and_blacklists () =
  let program = assemble_loop () in
  let mem = load_into_mem program in
  let engine = Gb_dbt.Engine.create Gb_dbt.Engine.default_config ~mem in
  let entry = Gb_riscv.Asm.symbol program "loop" in
  let skip_branch = entry + 4 in
  (* without profile data the trace stops at the first branch — still a
     valid 1-instruction trace *)
  ignore (Gb_dbt.Engine.translate engine entry);
  Alcotest.(check bool) "cached" true (Gb_dbt.Engine.lookup engine entry <> None);
  (* a pc pointing at an ecall cannot be translated and gets blacklisted *)
  let ecall_pc = Gb_riscv.Asm.symbol program "skip" + 8 in
  Alcotest.(check bool) "ecall not translatable" true
    (Gb_dbt.Engine.translate engine ecall_pc = None);
  Alcotest.(check int) "failure recorded" 1
    (Gb_dbt.Engine.stats engine).Gb_dbt.Engine.failures;
  ignore skip_branch

(* Translation is synchronous; [workers] survives only as a config field
   that must be 0, and any other value is refused rather than ignored. *)
let engine_rejects_workers () =
  let mem = load_into_mem (assemble_loop ()) in
  List.iter
    (fun workers ->
      let cfg = { Gb_dbt.Engine.default_config with Gb_dbt.Engine.workers } in
      match Gb_dbt.Engine.create cfg ~mem with
      | _ -> Alcotest.failf "workers = %d accepted" workers
      | exception Invalid_argument msg ->
        if not (String.starts_with ~prefix:"Engine.create: config.workers" msg)
        then
          Alcotest.failf "message does not name the field: %S" msg)
    [ 1; 4; -1 ];
  Alcotest.(check int) "default is 0" 0
    Gb_dbt.Engine.default_config.Gb_dbt.Engine.workers;
  ignore (Gb_dbt.Engine.create Gb_dbt.Engine.default_config ~mem)

(* --- pinned emitted code ------------------------------------------------- *)

(* Every translation of the 20 programs, rendered field by field, plus the
   simulated cycles, hashed into one digest. Each program runs once
   (program i under mode i mod 5) and its installed code is rendered with
   the engine's real meta; then every trace region of that run is
   re-translated under all five modes through the public phases, on the
   run's final branch profile. Fault injection is pinned off, so every
   CI environment computes the same digest. *)

let pinned_code_digest = "5399fa39803fd5c67aecb3d8aa6b6baa"

let render_op buf op =
  let open Gb_vliw.Vinsn in
  Buffer.add_string buf (Format.asprintf "[%a" pp_op op);
  (match op with
  | Load { id; pc; _ } | Store { id; pc; _ } | Cflush { id; pc; _ } ->
    Printf.bprintf buf " id=%d pc=0x%x" id pc
  | Nop | Alu _ | Branch _ | Chk _ | Mv _ | Rdcycle _ | Fence | Exit _ -> ());
  Buffer.add_char buf ']'

let render_trace buf (t : Gb_vliw.Vinsn.trace) =
  let open Gb_vliw.Vinsn in
  let m = t.meta in
  Printf.bprintf buf "trace 0x%x insns=%d regs=%d meta=%d/%d/%d/%d/%d/%d\n"
    t.entry_pc t.guest_insns t.n_regs m.spec_loads m.branch_spec_loads
    m.spectre_patterns m.constrained_loads m.fences_inserted m.cut_protects;
  Array.iteri
    (fun c bundle ->
      Printf.bprintf buf " %d:" c;
      Array.iter (render_op buf) bundle;
      Buffer.add_char buf '\n')
    t.bundles;
  Array.iteri
    (fun i s ->
      Printf.bprintf buf " stub%d exit=%d -> 0x%x (%d):" i s.exit_id
        s.target_pc s.n_commits;
      List.iter
        (fun (r, v) ->
          match v with
          | R src -> Printf.bprintf buf " r%d<-r%d" r src
          | I imm -> Printf.bprintf buf " r%d<-#%Ld" r imm)
        s.commits;
      Buffer.add_char buf '\n')
    t.stubs

(* the public phases, as the engine runs them for one trace region *)
let replay_translation buf ~mem ~profile ~cfg mode entry =
  let lat = cfg.Gb_dbt.Engine.lat and res = cfg.Gb_dbt.Engine.resources in
  match
    let gtrace =
      Gb_dbt.Trace_builder.build cfg.Gb_dbt.Engine.trace_cfg ~mem ~profile
        ~entry
    in
    let g =
      Gb_ir.Build.build ~opt:(Gb_core.Mitigation.opt_of_mode mode) ~lat gtrace
    in
    ignore (Gb_core.Mitigation.apply mode ~lat g);
    let cycles = Gb_dbt.Sched.schedule res ~lat g in
    Gb_dbt.Codegen.emit res ~n_hidden:cfg.Gb_dbt.Engine.n_hidden ~cycles
      ~entry_pc:entry ~guest_insns:(Gb_ir.Gtrace.length gtrace)
      ~meta:Gb_vliw.Vinsn.empty_meta g
  with
  | trace -> render_trace buf trace
  | exception e -> Printf.bprintf buf "0x%x: %s\n" entry (Printexc.to_string e)

let render_pinned_code () =
  let buf = Buffer.create (1 lsl 20) in
  let programs =
    Gb_workloads.Polybench.all @ [ Gb_workloads.Polybench.matmul_ptr ]
  in
  let modes = Array.of_list Gb_core.Mitigation.all_modes in
  List.iteri
    (fun i (k : Gb_workloads.Polybench.t) ->
      let mode = modes.(i mod Array.length modes) in
      let asm = Gb_kernelc.Compile.assemble k.Gb_workloads.Polybench.program in
      let p = Pinned.processor mode asm in
      let r = Gb_system.Processor.run p in
      Printf.bprintf buf "== %s %s: exit=%d cycles=%Ld bundles=%Ld\n"
        k.Gb_workloads.Polybench.name
        (Gb_core.Mitigation.mode_name mode)
        r.Gb_system.Processor.exit_code r.Gb_system.Processor.cycles
        r.Gb_system.Processor.bundles;
      let eng = Gb_system.Processor.engine p in
      let regions = Gb_dbt.Engine.regions eng in
      List.iter
        (fun (rg : Gb_dbt.Engine.region) ->
          Option.iter (render_trace buf)
            (Gb_dbt.Engine.lookup eng rg.Gb_dbt.Engine.r_entry))
        regions;
      let mem = Gb_system.Processor.mem p in
      let profile = Gb_dbt.Engine.branch_profile eng in
      let cfg = Gb_dbt.Engine.config eng in
      Array.iter
        (fun mode ->
          Printf.bprintf buf "-- replay %s\n"
            (Gb_core.Mitigation.mode_name mode);
          List.iter
            (fun (rg : Gb_dbt.Engine.region) ->
              match rg.Gb_dbt.Engine.r_tier with
              | `Trace ->
                replay_translation buf ~mem ~profile ~cfg mode
                  rg.Gb_dbt.Engine.r_entry
              | `Block -> ())
            regions)
        modes)
    programs;
  Buffer.contents buf

let pinned_code () =
  let digest = Digest.to_hex (Digest.string (render_pinned_code ())) in
  if digest <> pinned_code_digest then
    Alcotest.failf
      "emitted code changed: digest %s, pinned %s.\n\
       Translation output (cycles, registers, stubs) must stay byte-identical \
       across refactors. If the change is intended, say why in the change \
       log and set [pinned_code_digest] in test/test_dbt.ml to %s."
      digest pinned_code_digest digest

(* --- pinned observations ------------------------------------------------- *)

(* What a run reports about itself, beyond the code it emits: the
   processor result (audit summary included), every counter, gauge and
   histogram, every retained event with its cycle stamp, and the
   verifier's log, hashed into one digest. It covers the translation
   paths the emitted-code pin does not watch: Verify_enforce fencing,
   eviction churn and lowering and block reuse in a 48-bundle cache, and
   the audit ledger under all five modes. Pinned like the emitted-code
   digest; host-time spans are left out. *)

let pinned_obs_digest = "c5af757f7676c5f8b9052adb0bfff56b"

(* [follows] prints the vestigial, always-zero [chain_follows], so the
   rendering (and the digest) is the one a dispatcher-only run gave
   while trace chaining still existed. *)
let render_observed_run buf name p =
  let module J = Gb_util.Json in
  let module P = Gb_system.Processor in
  let r = P.run p in
  Printf.bprintf buf
    "== %s: exit=%d cycles=%Ld interp=%Ld runs=%Ld bundles=%Ld side=%Ld \
     rollbacks=%Ld stall=%Ld tr=%d fp=%d patterns=%d constrained=%d \
     fences=%d spec=%d vchecked=%d vviol=%d vrej=%d dispatch=%Ld \
     follows=%Ld guest=%Ld evictions=%d output=%S\n"
    name r.P.exit_code r.P.cycles r.P.interp_insns r.P.trace_runs r.P.bundles
    r.P.side_exits r.P.rollbacks r.P.stall_cycles r.P.translations
    r.P.first_pass_translations r.P.patterns_found r.P.loads_constrained
    r.P.fences_inserted r.P.spec_loads r.P.verify_checked
    r.P.verify_violations r.P.verify_rejections r.P.dispatch_exits
    r.P.chain_follows r.P.guest_insns r.P.cc_evictions r.P.output;
  Option.iter
    (fun s ->
      Printf.bprintf buf "audit %s\n"
        (J.to_string (Gb_cache.Audit.summary_to_json s)))
    r.P.audit;
  let obs = P.obs p in
  (match Gb_obs.Sink.metrics_json obs with
  | J.Obj fields ->
    (* counters, gauges and histograms: host time and ring retention
       stay out *)
    Printf.bprintf buf "metrics %s\n"
      (J.to_string
         (J.Obj (List.filter (fun (k, _) -> k <> "host_phases" && k <> "events") fields)))
  | _ -> ());
  Printf.bprintf buf "dropped %d\n" (Gb_obs.Sink.dropped_events obs);
  List.iter
    (fun e -> Printf.bprintf buf "%s\n" (J.to_string (Gb_obs.Event.to_json e)))
    (Gb_obs.Sink.events obs);
  List.iter
    (fun (entry, (v : Gb_verify.Verifier.violation)) ->
      Printf.bprintf buf "violation 0x%x %s pc=0x%x id=%d bundle=%d [%s]\n"
        entry
        (Gb_verify.Verifier.kind_name v.Gb_verify.Verifier.v_kind)
        v.Gb_verify.Verifier.v_pc v.Gb_verify.Verifier.v_id
        v.Gb_verify.Verifier.v_bundle
        (String.concat ";"
           (List.map string_of_int v.Gb_verify.Verifier.v_origins)))
    (Gb_dbt.Engine.verify_log (P.engine p))

let render_pinned_obs () =
  let buf = Buffer.create (1 lsl 22) in
  let run ?engine name mode program =
    let obs = Gb_obs.Sink.create ~seed:7L () in
    render_observed_run buf name
      (Pinned.processor ~obs ~audit:true ?engine mode program)
  in
  let gemm =
    match Gb_workloads.Polybench.by_name "gemm" with
    | Some w -> Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program
    | None -> Alcotest.fail "gemm workload missing"
  in
  let fg = Gb_core.Mitigation.Fine_grained in
  run "gemm" fg gemm;
  run "gemm verify-enforce" fg gemm ~engine:(fun e ->
      { e with Gb_dbt.Engine.verify = Gb_dbt.Engine.Verify_enforce });
  run "gemm 48-bundle cache" fg gemm ~engine:(fun e ->
      { e with
        Gb_dbt.Engine.cache =
          { e.Gb_dbt.Engine.cache with Gb_dbt.Code_cache.capacity = 48 } });
  let v1 =
    Gb_kernelc.Compile.assemble
      (Gb_attack.Spectre_v1.program ~secret:"SQUASH" ())
  in
  List.iter
    (fun mode ->
      run ("spectre-v1 " ^ Gb_core.Mitigation.mode_name mode) mode v1)
    Gb_core.Mitigation.all_modes;
  Buffer.contents buf

let pinned_obs () =
  let digest = Digest.to_hex (Digest.string (render_pinned_obs ())) in
  if digest <> pinned_obs_digest then
    Alcotest.failf
      "observed runs changed: digest %s, pinned %s.\n\
       Results, counters, events and the verifier log must stay \
       byte-identical across refactors of the translation paths. If the \
       change is intended, say why in the change log and set \
       [pinned_obs_digest] in test/test_dbt.ml to %s."
      digest pinned_obs_digest digest

(* --- pinned adaptive state ------------------------------------------------ *)

(* The engine's per-pc state machine, observed from outside: runs that
   retranslate, despeculate, blacklist and capacity-evict, each digested
   as its processor result, every engine statistic, the installed regions
   with their run counts and the branch profile at every word of the
   program image. The two digests above see those transitions only
   through the code and counters they cause, and no run of theirs
   despeculates. Each run first asserts the mechanism it exists for, so
   the digest cannot pin a run in which it never fired. *)

let pinned_adaptive_digest = "fe5f7c5ac7850eec33fd0580ef8d3769"

(* [follows]: see [render_observed_run] *)
let render_adaptive_run buf name p =
  let module P = Gb_system.Processor in
  let module E = Gb_dbt.Engine in
  let r = P.run p in
  let eng = P.engine p in
  let s = E.stats eng in
  Printf.bprintf buf
    "== %s: exit=%d cycles=%Ld interp=%Ld runs=%Ld bundles=%Ld side=%Ld \
     rollbacks=%Ld stall=%Ld dispatch=%Ld follows=%Ld guest=%Ld \
     evictions=%d output=%S\n"
    name r.P.exit_code r.P.cycles r.P.interp_insns r.P.trace_runs r.P.bundles
    r.P.side_exits r.P.rollbacks r.P.stall_cycles r.P.dispatch_exits
    r.P.chain_follows r.P.guest_insns r.P.cc_evictions r.P.output;
  Printf.bprintf buf
    "stats retr=%d despec=%d fp=%d tr=%d fail=%d insns=%d patterns=%d \
     constrained=%d fences=%d spec=%d bspec=%d vchecked=%d vviol=%d vrej=%d\n"
    s.E.retranslations s.E.despeculations s.E.first_pass_translations
    s.E.translations s.E.failures s.E.guest_insns_translated
    s.E.patterns_found s.E.loads_constrained s.E.fences_inserted
    s.E.spec_loads s.E.branch_spec_loads s.E.verify_checked
    s.E.verify_violations s.E.verify_rejections;
  List.iter
    (fun (rg : E.region) ->
      Printf.bprintf buf "region 0x%x %s runs=%d\n" rg.E.r_entry
        (match rg.E.r_tier with `Block -> "block" | `Trace -> "trace")
        rg.E.r_runs)
    (E.regions eng);
  s

let render_pinned_adaptive () =
  let module E = Gb_dbt.Engine in
  let buf = Buffer.create (1 lsl 16) in
  let run ?(engine = Fun.id) name mode program check =
    let asm = Gb_kernelc.Compile.assemble program in
    let p = Pinned.processor ~engine mode asm in
    let s = render_adaptive_run buf name p in
    let eng = Gb_system.Processor.engine p in
    let base = asm.Gb_riscv.Asm.base in
    let words = Bytes.length asm.Gb_riscv.Asm.image / 4 in
    for i = 0 to words - 1 do
      let pc = base + (4 * i) in
      match E.branch_profile eng pc with
      | Some (taken, total) ->
        Printf.bprintf buf "branch 0x%x %d/%d\n" pc taken total
      | None -> ()
    done;
    check s (Gb_dbt.Code_cache.stats (E.code_cache eng))
  in
  let kernel name =
    match Gb_workloads.Polybench.by_name name with
    | Some w -> w.Gb_workloads.Polybench.program
    | None -> Alcotest.failf "%s workload missing" name
  in
  let despec e = { e with E.adaptive_despec = true } in
  let fg = Gb_core.Mitigation.Fine_grained
  and unsafe = Gb_core.Mitigation.Unsafe in
  run "doitgen retranslates" fg (kernel "doitgen") (fun s _ ->
      Alcotest.(check int) "doitgen retranslations" 3 s.E.retranslations);
  run "nussinov despeculates" unsafe (kernel "nussinov") ~engine:despec
    (fun s _ ->
      Alcotest.(check int) "nussinov despeculations" 1 s.E.despeculations;
      Alcotest.(check int) "nussinov failures" 1 s.E.failures);
  run "spectre-v4 despeculates" unsafe
    (Gb_attack.Spectre_v4.program ~secret:"SQUASH" ())
    ~engine:despec
    (fun s _ ->
      Alcotest.(check int) "spectre-v4 despeculations" 2 s.E.despeculations);
  run "gemm 48-bundle cache" fg (kernel "gemm")
    ~engine:(fun e ->
      { e with E.cache = { e.E.cache with Gb_dbt.Code_cache.capacity = 48 } })
    (fun _ cs ->
      Alcotest.(check int) "gemm capacity evictions" 951
        cs.Gb_dbt.Code_cache.evictions);
  Buffer.contents buf

let pinned_adaptive () =
  let digest = Digest.to_hex (Digest.string (render_pinned_adaptive ())) in
  if digest <> pinned_adaptive_digest then
    Alcotest.failf
      "adaptive state changed: digest %s, pinned %s.\n\
       Retranslation, despeculation, blacklisting, eviction resets and the \
       branch profile must stay byte-identical across refactors of the \
       engine's bookkeeping. If the change is intended, say why in the \
       change log and set [pinned_adaptive_digest] in test/test_dbt.ml to %s."
      digest pinned_adaptive_digest digest

(* --- lowering reuse ---------------------------------------------------- *)

let assemble_workload name =
  match Gb_workloads.Polybench.by_name name with
  | Some w -> Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program
  | None -> Alcotest.failf "%s workload missing" name

let spectre_v1 () =
  Gb_kernelc.Compile.assemble
    (Gb_attack.Spectre_v1.program ~secret:"SQUASH" ())

(* What a run installed and reinstalled, counted by observers of the
   code cache and the engine instead of read from the engine's
   statistics: the trace-tier inserts, the sums of their translations'
   [meta], and the reinstalls of each tier. *)
type installs = {
  mutable traces : int;
  mutable patterns : int;
  mutable constrained : int;
  mutable fences : int;
  mutable trace_reinstalls : int;
  mutable block_reinstalls : int;
}

(* One run in a [capacity]-bundle code cache: the result, the engine's
   statistics, the installed regions with their run counts and code,
   rendered, and what the observers counted. *)
let observe_reuse ?obs ?audit ?(verify = Gb_dbt.Engine.Verify_enforce)
    ~capacity mode asm =
  let module P = Gb_system.Processor in
  let module E = Gb_dbt.Engine in
  let module C = Gb_dbt.Code_cache in
  let engine e =
    { e with E.verify; cache = { e.E.cache with C.capacity } }
  in
  let p = Pinned.processor ?obs ?audit ~engine mode asm in
  let eng = P.engine p in
  let seen =
    { traces = 0; patterns = 0; constrained = 0; fences = 0;
      trace_reinstalls = 0; block_reinstalls = 0 }
  in
  C.set_on_insert (E.code_cache eng) (fun e ->
      match e.C.e_tier with
      | C.Trace ->
        let m = e.C.e_trace.Gb_vliw.Vinsn.meta in
        seen.traces <- seen.traces + 1;
        seen.patterns <- seen.patterns + m.Gb_vliw.Vinsn.spectre_patterns;
        seen.constrained <-
          seen.constrained + m.Gb_vliw.Vinsn.constrained_loads;
        seen.fences <- seen.fences + m.Gb_vliw.Vinsn.fences_inserted
      | C.Block -> ());
  E.set_on_reinstall eng (fun ~entry:_ tier _ ~plan:_ _ ->
      match tier with
      | C.Trace -> seen.trace_reinstalls <- seen.trace_reinstalls + 1
      | C.Block -> seen.block_reinstalls <- seen.block_reinstalls + 1);
  let r = P.run p in
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (rg : E.region) ->
      Printf.bprintf buf "region 0x%x %s runs=%d\n" rg.E.r_entry
        (match rg.E.r_tier with `Block -> "block" | `Trace -> "trace")
        rg.E.r_runs;
      render_trace buf rg.E.r_trace)
    (E.regions eng);
  (r, E.stats eng, Buffer.contents buf, seen)

(* A trace entry whose stored walk still holds reinstalls the lowering
   stored there, and a first-pass block whose words are unchanged the
   block stored there (INTERNALS section 8). That must be invisible, and
   every run takes that path, observed or not. heat-3d in a 384-bundle
   cache re-translates most of its code after eviction: 2546 of its 2598
   trace translations and 412 of its 489 first-pass blocks reuse, under
   either kind the churn benchmark runs.
   matmul-ptr fine-grained in a 96-bundle cache reinstalls lowerings
   that constrained loads. The unsafe spectre-v1 run in a 96-bundle
   cache has the gate fence dozens of re-translated traces: a fenced
   lowering is never stored, so each of those is rejected and fenced
   again, exactly as without reuse. Each config runs with the noop sink,
   with an active sink, and with an active sink and an audit. Reuses,
   result (audit aside), statistics, regions with their run counts and
   the installed code must agree. The reinstalls the engine reports must
   be the pinned reuses, and the sink's counters must equal what the
   code cache was given: its trace inserts and their translations'
   [meta] (the min-cut-only counter listed under min-cut alone). *)
let reuse_is_invisible () =
  let module P = Gb_system.Processor in
  let module E = Gb_dbt.Engine in
  let heat_3d = assemble_workload "heat-3d" in
  List.iter
    (fun (name, capacity, mode, asm, reuses, blocks, patterns) ->
      let r, s, code, seen = observe_reuse ~capacity mode asm in
      Alcotest.(check int) (name ^ ": reuses") reuses s.E.lowerings_reused;
      Alcotest.(check int) (name ^ ": trace reinstalls") reuses
        seen.trace_reinstalls;
      Alcotest.(check int) (name ^ ": block reuses") blocks s.E.blocks_reused;
      Alcotest.(check int) (name ^ ": block reinstalls") blocks
        seen.block_reinstalls;
      Alcotest.(check int) (name ^ ": patterns") patterns r.P.patterns_found;
      List.iter
        (fun (observer, audit) ->
          let what = Printf.sprintf "%s, %s" name observer in
          let obs = Gb_obs.Sink.create () in
          let r', s', code', seen' =
            observe_reuse ~obs ~audit ~capacity mode asm
          in
          Alcotest.(check bool) (what ^ ": same result") true
            (r = { r' with P.audit = None });
          Alcotest.(check bool) (what ^ ": same stats") true (s = s');
          Alcotest.(check string) (what ^ ": same regions and code")
            (Digest.to_hex (Digest.string code))
            (Digest.to_hex (Digest.string code'));
          Alcotest.(check bool) (what ^ ": same installs") true (seen = seen');
          let counters = Gb_obs.Sink.counters obs in
          List.iter
            (fun (c, v) ->
              Alcotest.(check (option int)) (what ^ ": " ^ c) v
                (List.assoc_opt c counters))
            [
              ("translate.translations", Some seen'.traces);
              ("translate.lowerings_reused", Some reuses);
              ("translate.blocks_reused", Some blocks);
              ("verify.checked", Some s.E.verify_checked);
              ("mitigation.patterns_found", Some seen'.patterns);
              ("mitigation.loads_constrained", Some seen'.constrained);
              ("mitigation.fences_inserted", Some seen'.fences);
              ( "mitigation.cut_protects",
                if mode = Gb_core.Mitigation.Min_cut then
                  Some seen'.constrained
                else None );
            ])
        [ ("active sink", false); ("active sink and audit", true) ])
    Gb_core.Mitigation.
      [
        ("heat-3d fine-grained", 384, Fine_grained, heat_3d, 2546, 412, 0);
        ("heat-3d min-cut", 384, Min_cut, heat_3d, 2546, 412, 0);
        ("spectre-v1 unsafe", 96, Unsafe, spectre_v1 (), 542, 131, 0);
        ( "matmul-ptr fine-grained", 96, Fine_grained,
          assemble_workload "matmul-ptr", 78, 72, 544 );
      ]

(* An audit needs no replay of a reinstalled lowering: it was told the
   lowering's speculative, flagged and constrained loads when the
   lowering was made, and its notes are set inserts. So an audited run
   that reuses gives the summary of the same run with every trace
   lowered in full, pinned here. Unsafe spectre-v1 in a 96-bundle cache
   without verification reuses 550 lowerings. *)
let audit_survives_reuse () =
  let module E = Gb_dbt.Engine in
  let r, s, _, _ =
    observe_reuse ~obs:(Gb_obs.Sink.create ()) ~audit:true ~verify:E.Verify_off
      ~capacity:96 Gb_core.Mitigation.Unsafe (spectre_v1 ())
  in
  Alcotest.(check int) "reuses" 550 s.E.lowerings_reused;
  Alcotest.(check string) "audit summary"
    "{\"spec_loads\":3,\"flagged\":1,\"constrained\":0,\"transient_lines\":6,\
     \"dependent_lines\":6,\"transient_pcs\":1,\"true_positives\":1,\
     \"false_negatives\":0,\"over_mitigations\":0,\"precision\":1.0,\
     \"recall\":1.0,\"over_fencing_rate\":0.0,\
     \"sets_touched\":[74,88,106,110,114],\"shadow_divergence\":0}"
    (match r.Gb_system.Processor.audit with
    | Some a -> Gb_util.Json.to_string (Gb_cache.Audit.summary_to_json a)
    | None -> "no audit")

(* A reinstall books the verdict the gate returned when its code was
   made instead of running the gate again, so that verdict must be the
   one the gate returns on the reinstalled code now. Every reinstall of
   the 22 programs under five modes, three code-cache sizes and both
   checking levels re-runs the gate, on the reinstalled code and the
   cut plan of its mitigation report, and compares. *)
let stored_verdicts_are_the_gates () =
  let module E = Gb_dbt.Engine in
  let module V = Gb_verify.Verifier in
  let programs =
    List.map
      (fun (w : Gb_workloads.Polybench.t) ->
        ( w.Gb_workloads.Polybench.name,
          Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program ))
      (Gb_workloads.Polybench.all @ [ Gb_workloads.Polybench.matmul_ptr ])
    @ [
        ("spectre-v1", spectre_v1 ());
        ( "spectre-v4",
          Gb_kernelc.Compile.assemble
            (Gb_attack.Spectre_v4.program ~secret:"SQUASH" ()) );
      ]
  in
  let traces = ref 0 and blocks = ref 0 and violating = ref 0 in
  List.iter
    (fun (name, asm) ->
      List.iter
        (fun mode ->
          List.iter
            (fun capacity ->
              List.iter
                (fun verify ->
                  let what =
                    Printf.sprintf "%s %s, %d bundles" name
                      (Gb_core.Mitigation.mode_name mode)
                      capacity
                  in
                  let engine e =
                    { e with
                      E.verify;
                      cache = { e.E.cache with Gb_dbt.Code_cache.capacity } }
                  in
                  let p = Pinned.processor ~engine mode asm in
                  let eng = Gb_system.Processor.engine p in
                  let reported = ref 0 in
                  E.set_on_reinstall eng (fun ~entry tier trace ~plan booked ->
                      incr reported;
                      (match tier with
                      | Gb_dbt.Code_cache.Trace -> incr traces
                      | Gb_dbt.Code_cache.Block -> incr blocks);
                      let fresh = V.gate ?plan trace in
                      if not (V.ok fresh) then incr violating;
                      if booked <> Some fresh then
                        Alcotest.failf
                          "%s: the verdict booked for the reinstall at 0x%x \
                           is not the gate's"
                          what entry);
                  ignore (Gb_system.Processor.run p);
                  let s = E.stats eng in
                  if !reported <> s.E.lowerings_reused + s.E.blocks_reused then
                    Alcotest.failf "%s: %d reinstalls reported, %d counted" what
                      !reported
                      (s.E.lowerings_reused + s.E.blocks_reused))
                [ E.Verify_report; E.Verify_enforce ])
            [ 65536; 384; 96 ])
        Gb_core.Mitigation.all_modes)
    programs;
  (* not vacuous: both tiers reinstall, some with violations booked *)
  Alcotest.(check bool)
    (Printf.sprintf "%d trace reinstalls" !traces)
    true (!traces > 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "%d block reinstalls" !blocks)
    true (!blocks > 1_000);
  Alcotest.(check bool)
    (Printf.sprintf "%d reinstalls with violations" !violating)
    true (!violating > 0)

(* The verify-fenced rebuild lowers a trace a second time, and each of
   its four phases is timed like the first lowering's: a profile of a
   run with rejections shows as many calls of each. *)
let fenced_rebuild_is_timed () =
  let obs = Gb_obs.Sink.create () in
  let asm =
    Gb_kernelc.Compile.assemble
      (Gb_attack.Spectre_v1.program ~secret:"SQUASH" ())
  in
  let p =
    Pinned.processor ~obs
      ~engine:(fun e ->
        { e with Gb_dbt.Engine.verify = Gb_dbt.Engine.Verify_enforce })
      Gb_core.Mitigation.Unsafe asm
  in
  let r = Gb_system.Processor.run p in
  Alcotest.(check bool) "rejections" true
    (r.Gb_system.Processor.verify_rejections > 0);
  let calls phase =
    match
      List.find_opt
        (fun (t : Gb_obs.Timer.total) -> t.Gb_obs.Timer.t_phase = phase)
        (Gb_obs.Sink.timer_totals obs)
    with
    | Some t -> t.Gb_obs.Timer.t_calls
    | None -> 0
  in
  let ir = calls "ir_build" in
  List.iter
    (fun phase ->
      Alcotest.(check int) (phase ^ " calls = ir_build calls") ir (calls phase))
    [ "poison_analysis"; "schedule"; "codegen" ]

(* Every event a translation emits names the region it translates, so
   the Chrome export draws it on that region's track: tid 0 is for
   unattributed events. Fine-grained spectre-v1 flags and constrains
   loads, so the mitigation's own events are among them. *)
let translation_events_carry_their_entry () =
  let module Ev = Gb_obs.Event in
  let obs = Gb_obs.Sink.create () in
  ignore
    (Gb_system.Processor.run
       (Pinned.processor ~obs Gb_core.Mitigation.Fine_grained (spectre_v1 ())));
  let events = Gb_obs.Sink.events obs in
  let translated =
    List.filter_map
      (fun (e : Ev.t) ->
        match e.Ev.kind with
        | Ev.Translate_start | Ev.Tier_transition { tier = "block" } ->
          Some e.Ev.region
        | _ -> None)
      events
  in
  let of_translation (e : Ev.t) =
    match e.Ev.kind with
    | Ev.Translate_start | Ev.Translate_end _ | Ev.Trace_formed _
    | Ev.Load_hoisted _ | Ev.Poison_flagged _ | Ev.Mitigation_applied _
    | Ev.Tier_transition _ | Ev.Verify_violation _ ->
      true
    | Ev.Mcb_conflict _ | Ev.Rollback | Ev.Cache_miss _ | Ev.Transient_line _
    | Ev.Cycle_attrib _ ->
      false
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " emitted") true
        (List.exists (fun (e : Ev.t) -> Ev.name e.Ev.kind = kind) events))
    [ "poison_flagged"; "mitigation_applied" ];
  List.iter
    (fun (e : Ev.t) ->
      if of_translation e
         && not (e.Ev.region <> 0 && List.mem e.Ev.region translated)
      then
        Alcotest.failf "%s at pc 0x%x names region 0x%x, no translated entry"
          (Ev.name e.Ev.kind) e.Ev.pc e.Ev.region)
    events

(* The engine's code decodes direct. The linear-scan allocator frees a
   hidden register only after its last read, so no bundle it emits reads
   a register another op of the bundle writes, and the pipeline's
   staged fallback (a write buffer and its commit per bundle) never
   runs. Every region a run installs, either tier, decodes with no
   staged bundle: the 20 programs under the five modes with the default
   cache, and under fine-grained and min-cut with the eviction churn of
   a 384-bundle cache under [Verify_enforce]. *)
let engine_code_runs_direct () =
  let module E = Gb_dbt.Engine in
  let module M = Gb_core.Mitigation in
  let churn e =
    { e with
      E.verify = E.Verify_enforce;
      cache = { e.E.cache with Gb_dbt.Code_cache.capacity = 384 } }
  in
  let configs =
    List.map (fun mode -> ("default cache", Fun.id, mode)) M.all_modes
    @ List.map
        (fun mode -> ("churn", churn, mode))
        [ M.Fine_grained; M.Min_cut ]
  in
  let installs = ref 0 in
  List.iter
    (fun (k : Gb_workloads.Polybench.t) ->
      let asm = Gb_kernelc.Compile.assemble k.Gb_workloads.Polybench.program in
      List.iter
        (fun (what, engine, mode) ->
          let p = Pinned.processor ~engine mode asm in
          Gb_dbt.Code_cache.set_on_insert
            (E.code_cache (Gb_system.Processor.engine p))
            (fun e ->
              incr installs;
              let t = e.Gb_dbt.Code_cache.e_trace in
              let staged = Gb_vliw.Pipeline.staged_bundles t in
              if Gb_vliw.Pipeline.decoded_ops t = 0 || staged > 0 then
                Alcotest.failf "%s %s, %s: the region at 0x%x %s"
                  k.Gb_workloads.Polybench.name (M.mode_name mode) what
                  t.Gb_vliw.Vinsn.entry_pc
                  (if staged > 0 then
                     Printf.sprintf "decodes %d staged bundles" staged
                   else "was installed undecoded"));
          ignore (Gb_system.Processor.run p))
        configs)
    (Gb_workloads.Polybench.all @ [ Gb_workloads.Polybench.matmul_ptr ]);
  (* not vacuous: the churn runs reinstall thousands of regions *)
  Alcotest.(check bool)
    (Printf.sprintf "%d installs" !installs)
    true (!installs > 10_000)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dbt"
    [
      ( "trace-builder",
        [
          Alcotest.test_case "follows bias and unrolls" `Quick trace_follows_bias;
          Alcotest.test_case "stops at unbiased branch" `Quick
            trace_stops_at_unbiased;
          Alcotest.test_case "stops at ecall" `Quick trace_stops_at_ecall;
          Alcotest.test_case "empty trace fails" `Quick empty_trace_fails;
          Alcotest.test_case "walk records every branch" `Quick
            walk_records_every_branch;
          Alcotest.test_case "walk rejects direction changes" `Quick
            walk_rejects_direction_changes;
          Alcotest.test_case "walk rejects code stores" `Quick
            walk_rejects_code_stores;
          qt walk_check_sound_prop;
        ] );
      ( "scheduler",
        [
          qt schedule_respects_edges_prop;
          qt schedule_respects_resources_prop;
          qt exit_scheduled_last_prop;
          qt schedule_matches_reference_prop;
          Alcotest.test_case "degenerate graphs = reference" `Quick
            schedule_degenerate;
        ] );
      ("oracle", [ qt trace_oracle_prop ]);
      ( "codegen",
        [
          qt codegen_invariants_prop;
          Alcotest.test_case "register pressure failure" `Quick
            register_pressure_failure;
          Alcotest.test_case "pinned emitted code" `Quick pinned_code;
          Alcotest.test_case "engine code decodes direct" `Quick
            engine_code_runs_direct;
          Alcotest.test_case "pinned counters and events" `Quick pinned_obs;
          Alcotest.test_case "pinned adaptive state" `Quick pinned_adaptive;
          Alcotest.test_case "lowering reuse is invisible" `Quick
            reuse_is_invisible;
          Alcotest.test_case "audit summary survives reuse" `Quick
            audit_survives_reuse;
          Alcotest.test_case "stored verdicts are the gate's" `Quick
            stored_verdicts_are_the_gates;
        ] );
      ( "first-pass",
        [
          Alcotest.test_case "straight line" `Quick first_pass_straight_line;
          Alcotest.test_case "branch block" `Quick first_pass_branch_block;
          Alcotest.test_case "untranslatable" `Quick first_pass_untranslatable;
          Alcotest.test_case "block walk rejects code stores" `Quick
            block_walk_rejects_code_stores;
          qt first_pass_never_speculates_prop;
          qt first_pass_differential_prop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "caching and blacklisting" `Quick
            engine_caches_and_blacklists;
          Alcotest.test_case "tier precedence" `Quick engine_tier_precedence;
          Alcotest.test_case "workers other than 0 rejected" `Quick
            engine_rejects_workers;
          Alcotest.test_case "fenced rebuild is timed" `Quick
            fenced_rebuild_is_timed;
          Alcotest.test_case "translation events carry their entry" `Quick
            translation_events_carry_their_entry;
        ] );
    ]
