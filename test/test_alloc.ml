(* Hot-path allocation discipline (INTERNALS.md) and the address-overflow
   regressions fixed alongside it.

   The allocation bounds here are steady-state properties: warm up the
   code path once, then hold N repetitions to a per-repetition word
   budget. Register values live unboxed in a [Gb_riscv.Regfile], so an
   ALU op or load allocates nothing; what a trace run still allocates is
   a small per-run constant for the trace-exit bookkeeping (the clock
   fold). With an [int64 array] register file every value written cost
   a 3-word box, so every bound in this file fails on that code. The
   bounds assume the release profile the workspace builds in: -opaque
   (the dev profile) turns the inlined register accesses into calls
   that box. *)

open Gb_vliw.Vinsn
module Mem = Gb_riscv.Mem
module Interp = Gb_riscv.Interp
module Allocs = Gb_obs.Allocs

let h n = Gb_vliw.Vinsn.guest_regs + n

let make_machine () =
  let mem = Mem.create ~size:4096 in
  let hier = Gb_cache.Hierarchy.create Gb_cache.Hierarchy.default_config in
  let clock = ref 0L in
  (Gb_vliw.Machine.create ~mem ~hier ~clock (), mem)

let pad width ops =
  Array.init width (fun i ->
      if i < List.length ops then List.nth ops i else Nop)

let trace ?(stubs = [ make_stub ~commits:[] ~target_pc:0x2000 () ])
    ?(n_regs = 64) bundles =
  {
    entry_pc = 0x1000;
    bundles = Array.of_list (List.map (pad 4) bundles);
    stubs = Array.of_list stubs;
    n_regs;
    guest_insns = 0;
    meta = empty_meta;
  }

(* words/run of [n] repetitions after one warm-up pass *)
let measure_runs m t n =
  ignore (Gb_vliw.Pipeline.run_one m t);
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Gb_vliw.Pipeline.run_one m t)
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* --- steady-state micro bounds ----------------------------------------- *)

(* Per-run budget: the trace-exit constant (one clock fold, and the
   [Gc.minor_words] float boxes of this measurement loop itself), with
   slack. Measured steady state is 13 words/run whatever the trace
   executes; with boxed register values it was 15 + 3 per value an op
   produced. *)
let budget = 16.

let check_budget name words =
  if words > budget then
    Alcotest.failf "%s: %.1f words/run exceeds budget %.1f" name words budget

let alu d = Alu { op = Gb_riscv.Insn.ADD; dst = d; a = R 1; b = R 2 }

let load ?(w = Gb_riscv.Insn.D) ?(unsigned = false) d off =
  Load
    { w; unsigned; dst = d; base = R 1; off; spec = None; id = 0; pc = 0;
      hoisted = false }

let store off =
  Store { w = Gb_riscv.Insn.D; src = R 2; base = R 1; off; id = 1; pc = 4 }

let all_alus =
  Gb_riscv.Insn.
    [ ADD; SUB; SLL; SLT; SLTU; XOR; SRL; SRA; OR; AND; ADDW; SUBW; SLLW;
      SRLW; SRAW; MUL; MULH; MULHSU; MULHU; DIV; DIVU; REM; REMU; MULW; DIVW;
      DIVUW; REMW; REMUW ]

(* Every op form that writes or reads a register value: each ALU op on
   register and immediate operands, loads and stores of every width,
   moves, and every branch condition (none taken: r1 = 64, r2 = 3). *)
let every_op_bundles =
  let module I = Gb_riscv.Insn in
  let alus =
    List.mapi
      (fun i op ->
        [ Alu { op; dst = h 0; a = R 1; b = R 2 };
          Alu { op; dst = h 1; a = R 2; b = I (-7L) };
          Alu { op; dst = h 2; a = I 0x1234_5678_9abcL; b = R 1 };
          Mv { dst = h 3; src = (if i land 1 = 0 then R 1 else I 5L) } ])
      all_alus
  in
  let mem =
    List.concat_map
      (fun w ->
        [ [ load ~w (h 0) 0; load ~w ~unsigned:true (h 1) 8;
            Store { w; src = R 2; base = R 1; off = 16; id = 1; pc = 4 } ] ])
      [ I.B; I.H; I.W; I.D ]
  in
  let branches =
    List.map
      (fun (cond, a, b) -> [ Branch { cond; a = R a; b = R b; stub = 0 } ])
      [ (I.BEQ, 1, 2); (I.BNE, 1, 1); (I.BLT, 1, 2); (I.BGE, 2, 1);
        (I.BLTU, 1, 2); (I.BGEU, 2, 1) ]
  in
  alus @ mem @ branches

let micro_bounds () =
  let m, _ = make_machine () in
  Gb_riscv.Regfile.set m.Gb_vliw.Machine.regs 1 64L;
  Gb_riscv.Regfile.set m.Gb_vliw.Machine.regs 2 3L;
  let body ops = List.init 9 (fun _ -> ops) @ [ [ Exit { stub = 0 } ] ] in
  let t_nop = trace (body []) in
  let t_alu = trace (body [ alu (h 0); alu (h 1) ]) in
  let t_load = trace (body [ load (h 0) 0; load (h 1) 8 ]) in
  let t_store = trace (body [ store 16 ]) in
  let t_every = trace (every_op_bundles @ [ [ Exit { stub = 0 } ] ]) in
  check_budget "nops" (measure_runs m t_nop 500);
  check_budget "alu x18" (measure_runs m t_alu 500);
  check_budget "load x18" (measure_runs m t_load 500);
  check_budget "store x9" (measure_runs m t_store 500);
  check_budget "every op form" (measure_runs m t_every 500)

(* --- qcheck: random traces stay within the per-run constant ----------- *)

(* One bundle slot: the dst register is keyed to the slot so a bundle
   never double-writes. No op form may allocate. *)
let gen_slot_op =
  let open QCheck.Gen in
  let off = map (fun k -> 8 * k) (int_range 0 100) in
  fun slot ->
    frequency
      [
        (3, map (fun _ -> alu (h slot)) unit);
        (2, map (fun off -> load (h slot) off) off);
        ( 1,
          map
            (fun off -> load ~w:Gb_riscv.Insn.W ~unsigned:true (h slot) off)
            off );
        (1, map (fun off -> store off) off);
        (1, return Nop);
      ]

let gen_trace =
  let open QCheck.Gen in
  let* n_bundles = int_range 1 12 in
  let gen_bundle = List.init 4 gen_slot_op |> flatten_l in
  let* bundles = list_size (return n_bundles) gen_bundle in
  return (trace (bundles @ [ [ Exit { stub = 0 } ] ]))

let random_trace_budget =
  QCheck.Test.make ~count:60
    ~name:"random traces: steady state within the per-run constant"
    (QCheck.make gen_trace) (fun t ->
      let m, _ = make_machine () in
      Gb_riscv.Regfile.set m.Gb_vliw.Machine.regs 1 64L;
      measure_runs m t 200 <= budget)

(* --- end-to-end bounds on a real kernel -------------------------------- *)

let gemm () = List.hd Gb_workloads.Polybench.all

let gemm_program () =
  Gb_kernelc.Compile.assemble (gemm ()).Gb_workloads.Polybench.program

(* The first run decodes every instruction it reaches, so the gemm
   figure is the decode cache's fill, spread over the run: 8.1 words per
   1000 instructions; 2601 with the int64 array register file. *)
let interp_bound () =
  let program = gemm_program () in
  let mem = Mem.create ~size:(1 lsl 20) in
  Gb_riscv.Asm.load mem program;
  let i = Interp.create ~mem ~pc:program.Gb_riscv.Asm.entry () in
  let a = Allocs.create () in
  Allocs.start a;
  let (_ : int) = Interp.run i in
  let per_kinsn =
    Allocs.per_kinsn ~words:(Allocs.stop a) ~insns:i.Interp.insn_count
  in
  if per_kinsn > 8.5 then
    Alcotest.failf "interpreter allocates %.2f words/kinsn (budget 8.5)"
      per_kinsn

(* A loop over every instruction class that can run allocation-free
   (all but rdcycle, which folds the clock, and ecall): ALU ops on
   registers and immediates, writes to x0, loads and stores of every
   width, auipc, and a call/return. The trip count is a data word, so
   two runs decode exactly the same code; the difference between them
   is what the extra iterations allocate. *)
let interp_loop =
  let open Gb_riscv in
  let open Insn in
  Asm.assemble
    ([ Asm.La (Reg.s0, "n"); Asm.Insn (Load (D, false, Reg.t0, Reg.s0, 0));
       Asm.La (Reg.s1, "buf"); Asm.Label "loop";
       Asm.Insn (Op_imm (ADDI, Reg.t1, Reg.t1, 3));
       Asm.Insn (Op_imm (SLLIW, Reg.t2, Reg.t1, 5));
       Asm.Insn (Op (MUL, Reg.t2, Reg.t2, Reg.t0));
       Asm.Insn (Op (MULH, Reg.t3, Reg.t2, Reg.t1));
       Asm.Insn (Op (DIVU, Reg.t3, Reg.t2, Reg.t1));
       Asm.Insn (Op (REMW, Reg.t4, Reg.t2, Reg.t0));
       Asm.Insn (Op (SLTU, Reg.t5, Reg.t3, Reg.t4));
       Asm.Insn (Op (ADD, Reg.zero, Reg.t1, Reg.t2));
       Asm.Insn (Store (D, Reg.t2, Reg.s1, 0));
       Asm.Insn (Store (W, Reg.t3, Reg.s1, 8));
       Asm.Insn (Store (H, Reg.t4, Reg.s1, 12));
       Asm.Insn (Store (B, Reg.t5, Reg.s1, 14));
       Asm.Insn (Load (D, false, Reg.a1, Reg.s1, 0));
       Asm.Insn (Load (W, false, Reg.a2, Reg.s1, 8));
       Asm.Insn (Load (H, true, Reg.a3, Reg.s1, 12));
       Asm.Insn (Load (B, true, Reg.a4, Reg.s1, 14));
       Asm.Insn (Load (D, false, Reg.zero, Reg.s1, 0));
       Asm.Insn (Auipc (Reg.a5, 1)); Asm.Jal_to (Reg.ra, "leaf");
       Asm.Insn (Op_imm (ADDI, Reg.t0, Reg.t0, -1));
       Asm.Branch_to (BNE, Reg.t0, Reg.zero, "loop");
       Asm.Li (Reg.a0, 0L); Asm.Li (Reg.a7, 93L); Asm.Insn Ecall;
       Asm.Label "leaf"; Asm.Insn (Jalr (Reg.zero, Reg.ra, 0));
       Asm.Align 8; Asm.Label "n"; Asm.Dword [ 0L ]; Asm.Label "buf";
       Asm.Space 16 ])

let interp_loop_words n =
  let mem = Mem.create ~size:(1 lsl 16) in
  Gb_riscv.Asm.load mem interp_loop;
  Mem.store64 mem ~addr:(Gb_riscv.Asm.symbol interp_loop "n") (Int64.of_int n);
  let i = Interp.create ~mem ~pc:interp_loop.Gb_riscv.Asm.entry () in
  let a = Allocs.create () in
  Allocs.start a;
  let (_ : int) = Interp.run i in
  (Allocs.stop a, i.Interp.insn_count)

let interp_steady_state () =
  let w1, n1 = interp_loop_words 1_000 in
  let w2, n2 = interp_loop_words 3_000 in
  if w2 <> w1 then
    Alcotest.failf "interpreter: %.0f words for %Ld more instructions"
      (w2 -. w1) (Int64.sub n2 n1)

(* 287.3 words/kinsn (the measured floor, +5%); 2080 with the int64
   array register file. What is left is per trace exit and per
   interpreted instruction, not per bundle: dispatch, engine bookkeeping,
   the interpreter's step records. Translation is excluded by the
   engine's Allocs windows. The processor is pinned to the configuration
   the manifest cell measures: chaining on (the NO_CHAIN leg dispatches
   every exit, which allocates per exit) and no injected faults
   (evictions retranslate). *)
let pipeline_bound () =
  let program = gemm_program () in
  List.iter
    (fun mode ->
      let p = Pinned.processor mode program in
      let a = Gb_system.Processor.allocs p in
      Allocs.start a;
      let r = Gb_system.Processor.run p in
      let per_kinsn =
        Allocs.per_kinsn ~words:(Allocs.stop a)
          ~insns:r.Gb_system.Processor.guest_insns
      in
      if per_kinsn > 301.7 then
        Alcotest.failf "%s: pipeline allocates %.1f words/kinsn (budget 301.7)"
          (Gb_core.Mitigation.mode_name mode)
          per_kinsn)
    [ Gb_core.Mitigation.Fence_on_detect; Gb_core.Mitigation.Min_cut ]

(* --- translation ---------------------------------------------------------- *)

(* Minor words per DFG node for translating every trace region of a
   program through the public phases, on the branch profile its run
   leaves behind, under the two modes the churn benchmark translates
   with. The engine's Allocs windows exclude translation, so this is its
   only allocation bound. The run is pinned, so the profile and the
   region list are the same in every environment. *)
let translation_words_per_node (k : Gb_workloads.Polybench.t) =
  let program = Gb_kernelc.Compile.assemble k.Gb_workloads.Polybench.program in
  let p = Pinned.processor Gb_core.Mitigation.Fine_grained program in
  ignore (Gb_system.Processor.run p);
  let eng = Gb_system.Processor.engine p in
  let mem = Gb_system.Processor.mem p in
  let profile = Gb_dbt.Engine.branch_profile eng in
  let cfg = Gb_dbt.Engine.config eng in
  let lat = cfg.Gb_dbt.Engine.lat and res = cfg.Gb_dbt.Engine.resources in
  let entries =
    List.filter_map
      (fun (r : Gb_dbt.Engine.region) ->
        match r.Gb_dbt.Engine.r_tier with
        | `Trace -> Some r.Gb_dbt.Engine.r_entry
        | `Block -> None)
      (Gb_dbt.Engine.regions eng)
  in
  let translate_all () =
    List.fold_left
      (fun nodes mode ->
        List.fold_left
          (fun nodes entry ->
            let gtrace =
              Gb_dbt.Trace_builder.build cfg.Gb_dbt.Engine.trace_cfg ~mem
                ~profile ~entry
            in
            let g =
              Gb_ir.Build.build ~opt:(Gb_core.Mitigation.opt_of_mode mode) ~lat
                gtrace
            in
            ignore (Gb_core.Mitigation.apply mode ~lat g);
            let cycles = Gb_dbt.Sched.schedule res ~lat g in
            ignore
              (Gb_dbt.Codegen.emit res ~n_hidden:cfg.Gb_dbt.Engine.n_hidden
                 ~cycles ~entry_pc:entry
                 ~guest_insns:(Gb_ir.Gtrace.length gtrace)
                 ~meta:Gb_vliw.Vinsn.empty_meta g);
            nodes + Gb_ir.Dfg.n_nodes g)
          nodes entries)
      0
      [ Gb_core.Mitigation.Fine_grained; Gb_core.Mitigation.Min_cut ]
  in
  ignore (translate_all ());
  let before = Gc.minor_words () in
  let nodes = translate_all () in
  (Gc.minor_words () -. before) /. float_of_int nodes

(* The measured floor + 10%: gemm 209.0 and matmul-ptr 216.5 words per
   node; 475.4 and 452.3 with list-of-tuples adjacency, a [Set] ready
   pool, the sorted-list free list and a snapshot taken for every load. *)
let translation_bound () =
  List.iter
    (fun (k, budget) ->
      let words = translation_words_per_node k in
      if words > budget then
        Alcotest.failf "%s: translation allocates %.1f words/node (budget %.1f)"
          k.Gb_workloads.Polybench.name words budget)
    [ (List.hd Gb_workloads.Polybench.all, 229.9);
      (Gb_workloads.Polybench.matmul_ptr, 238.2) ]

(* --- Allocs accounting ------------------------------------------------- *)

(* 5 minor words per element: a float box and a list cell. A single big
   array would go straight to the major heap (beyond Max_young_wosize)
   and be invisible to [Gc.minor_words]. *)
let alloc_minor_words n =
  let l = ref [] in
  for i = 1 to n / 5 do
    l := Sys.opaque_identity (float_of_int i) :: !l
  done;
  ignore (Sys.opaque_identity !l)

let allocs_windows () =
  let a = Allocs.create () in
  Alcotest.(check (float 0.)) "never started" 0. (Allocs.stop a);
  Allocs.start a;
  alloc_minor_words 500;
  Allocs.pause a;
  Allocs.pause a;
  (* nested *)
  alloc_minor_words 100_000;
  Allocs.resume a;
  Allocs.resume a;
  alloc_minor_words 500;
  (* both counted windows, but never the excluded one *)
  Alcotest.(check (float 0.)) "counted windows" 1000. (Allocs.stop a);
  (* the window bookkeeping itself is free, so the count cannot depend
     on how many windows a run opens *)
  Allocs.start a;
  for _ = 1 to 1000 do
    Allocs.pause a;
    Allocs.resume a
  done;
  Alcotest.(check (float 0.)) "1000 empty windows" 0. (Allocs.stop a)

(* --- overflow regressions ---------------------------------------------- *)

(* [addr + size] wraps negative near [max_int]: the pre-fix bound check
   [addr + n > length] concluded the access was in range and indexed
   [Bytes] with a wild offset. The fixed check ([n > length - addr])
   cannot overflow for positive addr. *)
let mem_overflow () =
  let mem = Mem.create ~size:4096 in
  let huge = max_int - 3 in
  Alcotest.check_raises "load" (Mem.Fault huge) (fun () ->
      ignore (Mem.load mem ~addr:huge ~size:8));
  Alcotest.check_raises "load_int" (Mem.Fault huge) (fun () ->
      ignore (Mem.load_int mem ~addr:huge ~size:4));
  Alcotest.check_raises "store" (Mem.Fault huge) (fun () ->
      Mem.store mem ~addr:huge ~size:8 42L);
  Alcotest.check_raises "load at max_int" (Mem.Fault max_int) (fun () ->
      ignore (Mem.load mem ~addr:max_int ~size:1))

(* The pipeline's deferred-fault bound check had the same wrap: a
   speculatively computed base near [max_int] dodged the fault path and
   crashed the host instead of faulting to 0. *)
let pipeline_load_overflow () =
  let m, _ = make_machine () in
  Gb_riscv.Regfile.set m.Gb_vliw.Machine.regs 1 (Int64.of_int (max_int - 4));
  let t =
    trace
      ~stubs:
        [ make_stub ~commits:[ (Gb_riscv.Reg.a0, R (h 0)) ] ~target_pc:0x2000 () ]
      [ [ load (h 0) 0 ]; [ Exit { stub = 0 } ] ]
  in
  let info = Gb_vliw.Pipeline.run_one m t in
  Alcotest.(check bool) "fallthrough" true
    (info.Gb_vliw.Vinsn.kind = Fallthrough);
  Alcotest.(check int64) "faulted load reads 0" 0L
    (Gb_riscv.Regfile.get m.Gb_vliw.Machine.regs Gb_riscv.Reg.a0)

(* A bad pc — negative, misaligned, out of range, or pointing at a
   non-instruction — must raise a clean [Trap], never [Invalid_argument]
   or [Mem.Fault]. *)
let fetch_traps () =
  let expect name pc =
    let mem = Mem.create ~size:4096 in
    let i = Interp.create ~mem ~pc () in
    match Interp.step i with
    | _ -> Alcotest.failf "%s: expected a Trap" name
    | exception Interp.Trap _ -> ()
    | exception e ->
      Alcotest.failf "%s: expected a Trap, got %s" name (Printexc.to_string e)
  in
  expect "negative pc" (-8);
  expect "misaligned pc" 2;
  expect "pc past memory" (4096 + 16);
  expect "pc at max_int - 3" (max_int - 3);
  expect "all-zero word (illegal encoding)" 0

let () =
  Alcotest.run "alloc"
    [
      ( "bounds",
        [
          Alcotest.test_case "micro steady state" `Quick micro_bounds;
          QCheck_alcotest.to_alcotest random_trace_budget;
          Alcotest.test_case "interpreter on gemm" `Quick interp_bound;
          Alcotest.test_case "interpreter: 0 words per instruction" `Quick
            interp_steady_state;
          Alcotest.test_case "pipeline on gemm" `Quick pipeline_bound;
          Alcotest.test_case "translation of gemm and matmul-ptr" `Quick
            translation_bound;
        ] );
      ( "allocs",
        [ Alcotest.test_case "exclusion windows" `Quick allocs_windows ] );
      ( "overflow",
        [
          Alcotest.test_case "Mem bound checks" `Quick mem_overflow;
          Alcotest.test_case "pipeline deferred fault" `Quick
            pipeline_load_overflow;
          Alcotest.test_case "interp fetch traps" `Quick fetch_traps;
        ] );
    ]
