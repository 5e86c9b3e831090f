(* End-to-end tests of the co-designed processor: translated execution must
   be architecturally identical to the reference interpreter under every
   mitigation mode, and the DBT layer must actually engage (translations,
   speculation, rollbacks). *)

let modes = Gb_core.Mitigation.all_modes

let interp_exit program =
  let mem = Gb_riscv.Mem.create ~size:(1 lsl 20) in
  Gb_riscv.Asm.load mem program;
  let interp = Gb_riscv.Interp.create ~mem ~pc:program.Gb_riscv.Asm.entry () in
  Gb_riscv.Interp.run interp

let run_mode mode program =
  Gb_system.Processor.run_program
    ~config:(Gb_system.Processor.config_for mode)
    program

(* A loop hot enough to be translated: sums i*i for i in [0, n). *)
let square_sum_program n =
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  Asm.assemble
    [
      Asm.Li (Reg.s1, Int64.of_int n);
      Asm.Li (Reg.s2, 0L);
      Asm.Li (Reg.t0, 0L);
      Asm.Label "loop";
      Asm.Insn (Op (MUL, Reg.t1, Reg.s2, Reg.s2));
      Asm.Insn (Op (ADD, Reg.t0, Reg.t0, Reg.t1));
      Asm.Insn (Op_imm (ADDI, Reg.s2, Reg.s2, 1));
      Asm.Branch_to (BLT, Reg.s2, Reg.s1, "loop");
      Asm.Insn (Op_imm (ANDI, Reg.a0, Reg.t0, 255));
      Asm.Li (Reg.a7, 93L);
      Asm.Insn Ecall;
    ]

(* A memory-heavy loop with genuine cross-iteration aliasing, to exercise
   MCB speculation and rollback: a[i mod 8] = a[(i+7) mod 8] + i. The load
   of iteration j reads the slot stored by the previous iteration, so in an unrolled
   trace the hoisted load conflicts with an earlier store. *)
let aliasing_program ?(offset = 7) n =
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  Asm.assemble
    [
      Asm.La (Reg.s0, "buf");
      Asm.Li (Reg.s1, Int64.of_int n);
      Asm.Li (Reg.s2, 0L);
      Asm.Label "loop";
      Asm.Insn (Op_imm (ANDI, Reg.t0, Reg.s2, 7));
      Asm.Insn (Op_imm (ADDI, Reg.t1, Reg.s2, offset));
      Asm.Insn (Op_imm (ANDI, Reg.t1, Reg.t1, 7));
      Asm.Insn (Op_imm (SLLI, Reg.t0, Reg.t0, 3));
      Asm.Insn (Op_imm (SLLI, Reg.t1, Reg.t1, 3));
      Asm.Insn (Op (ADD, Reg.t0, Reg.t0, Reg.s0));
      Asm.Insn (Op (ADD, Reg.t1, Reg.t1, Reg.s0));
      Asm.Insn (Load (D, false, Reg.t2, Reg.t1, 0));
      Asm.Insn (Op (ADD, Reg.t2, Reg.t2, Reg.s2));
      Asm.Insn (Store (D, Reg.t2, Reg.t0, 0));
      Asm.Insn (Op_imm (ADDI, Reg.s2, Reg.s2, 1));
      Asm.Branch_to (BLT, Reg.s2, Reg.s1, "loop");
      (* checksum the buffer *)
      Asm.Li (Reg.t0, 0L);
      Asm.Li (Reg.t3, 0L);
      Asm.Label "sum";
      Asm.Insn (Op (ADD, Reg.t4, Reg.s0, Reg.t3));
      Asm.Insn (Load (D, false, Reg.t5, Reg.t4, 0));
      Asm.Insn (Op (ADD, Reg.t0, Reg.t0, Reg.t5));
      Asm.Insn (Op_imm (ADDI, Reg.t3, Reg.t3, 8));
      Asm.Insn (Op_imm (SLTIU, Reg.t6, Reg.t3, 64));
      Asm.Insn (Branch (BNE, Reg.t6, Reg.zero, -20));
      Asm.Insn (Op_imm (ANDI, Reg.a0, Reg.t0, 255));
      Asm.Li (Reg.a7, 93L);
      Asm.Insn Ecall;
      Asm.Label "buf";
      Asm.Dword [ 0L; 0L; 0L; 0L; 0L; 0L; 0L; 0L ];
    ]

let check_all_modes name program =
  let expected = interp_exit program in
  List.iter
    (fun mode ->
      let r = run_mode mode program in
      Alcotest.(check int)
        (Printf.sprintf "%s under %s" name (Gb_core.Mitigation.mode_name mode))
        expected r.Gb_system.Processor.exit_code)
    modes

let square_sum_all_modes () = check_all_modes "square sum" (square_sum_program 200)

let aliasing_all_modes () = check_all_modes "aliasing loop" (aliasing_program 300)

let dbt_engages () =
  let r = run_mode Gb_core.Mitigation.Unsafe (square_sum_program 500) in
  Alcotest.(check bool) "translated something" true
    (r.Gb_system.Processor.translations > 0);
  Alcotest.(check bool) "ran traces" true
    (Int64.compare r.Gb_system.Processor.trace_runs 0L > 0);
  Alcotest.(check bool) "most work on the VLIW" true
    (Int64.compare r.Gb_system.Processor.interp_insns 2000L < 0)

let speculation_engages () =
  let r = run_mode Gb_core.Mitigation.Unsafe (aliasing_program 500) in
  Alcotest.(check bool) "memory speculation used" true
    (r.Gb_system.Processor.spec_loads > 0);
  Alcotest.(check bool) "rollbacks happened" true
    (Int64.compare r.Gb_system.Processor.rollbacks 0L > 0)

let no_spec_is_slower () =
  (* needs a loop with loads: "no speculation" pins loads behind branches
     and stores, while pure ALU work may still float *)
  (* offset 1: the loads never conflict with in-flight stores, so
     speculation is pure win *)
  let program = aliasing_program ~offset:1 2000 in
  let fast = run_mode Gb_core.Mitigation.Unsafe program in
  let slow = run_mode Gb_core.Mitigation.No_speculation program in
  Alcotest.(check bool) "load speculation speeds up the loop" true
    (Int64.compare slow.Gb_system.Processor.cycles
       fast.Gb_system.Processor.cycles
    > 0)

let tier_upgrade () =
  (* a hot loop passes through both tiers: first-level block translation
     while warm, optimizing trace translation once hot — and the hot loop
     head must end up on the trace tier *)
  let program = square_sum_program 500 in
  let proc =
    Gb_system.Processor.create
      ~config:(Gb_system.Processor.config_for Gb_core.Mitigation.Unsafe)
      program
  in
  let r = Gb_system.Processor.run proc in
  Alcotest.(check bool) "first-pass used" true
    (r.Gb_system.Processor.first_pass_translations > 0);
  Alcotest.(check bool) "optimizer used" true
    (r.Gb_system.Processor.translations > 0);
  let regions = Gb_dbt.Engine.regions (Gb_system.Processor.engine proc) in
  let hottest = List.hd regions in
  Alcotest.(check bool) "hottest region is an optimized trace" true
    (hottest.Gb_dbt.Engine.r_tier = `Trace);
  Alcotest.(check bool) "it ran many times" true
    (hottest.Gb_dbt.Engine.r_runs > 50)

(* A two-phase loop: the inner branch is taken for the first half of the
   iterations and not taken afterwards. A trace specialised on the phase-1
   bias side-exits on every phase-2 iteration; adaptive re-translation
   drops it, re-learns the bias and rebuilds. *)
let phase_flip_program n =
  let open Gb_kernelc.Dsl in
  Gb_kernelc.Compile.assemble
    {
      Gb_kernelc.Ast.arrays = [ array "a" Gb_kernelc.Ast.I64 [ 64 ] ];
      body =
        [
          for_ "i" (c 0) (c 64) [ ("a", [ v "i" ]) <-: (v "i" *: c 3) ];
          let_ "acc" (c 0);
          for_ "i" (c 0) (c (2 * n))
            [
              if_
                (v "i" <: c n)
                [ set "acc" (v "acc" +: (arr "a" [ v "i" &: c 63 ] *: c 3)) ]
                [ set "acc" (v "acc" ^: (arr "a" [ (v "i" *: c 7) &: c 63 ] +: c 1)) ];
            ];
        ];
      result = v "acc" &: c 255;
    }

let adaptive_retranslation () =
  let program = phase_flip_program 600 in
  let base = Gb_system.Processor.config_for Gb_core.Mitigation.Unsafe in
  let with_flag enabled =
    {
      base with
      Gb_system.Processor.engine =
        { base.Gb_system.Processor.engine with
          Gb_dbt.Engine.adaptive_retranslate = enabled };
    }
  in
  let off_proc = Gb_system.Processor.create ~config:(with_flag false) program in
  let off = Gb_system.Processor.run off_proc in
  let on_proc = Gb_system.Processor.create ~config:(with_flag true) program in
  let on = Gb_system.Processor.run on_proc in
  Alcotest.(check int) "same result" off.Gb_system.Processor.exit_code
    on.Gb_system.Processor.exit_code;
  let on_stats = Gb_dbt.Engine.stats (Gb_system.Processor.engine on_proc) in
  Alcotest.(check bool) "stale trace was rebuilt" true
    (on_stats.Gb_dbt.Engine.retranslations > 0);
  Alcotest.(check bool) "rebuilding pays off" true
    (Int64.compare on.Gb_system.Processor.cycles off.Gb_system.Processor.cycles
    <= 0)

let report_is_consistent () =
  let program = aliasing_program 600 in
  let proc =
    Gb_system.Processor.create
      ~config:(Gb_system.Processor.config_for Gb_core.Mitigation.Unsafe)
      program
  in
  let result = Gb_system.Processor.run proc in
  let report = Gb_system.Report.of_processor proc result in
  Alcotest.(check bool) "most insns translated" true
    (report.Gb_system.Report.translated_share > 0.5);
  Alcotest.(check bool) "ipc positive" true
    (report.Gb_system.Report.overall_ipc > 0.);
  Alcotest.(check bool) "regions recorded" true
    (report.Gb_system.Report.regions <> []);
  (* regions are sorted hottest-first and runs are consistent *)
  let runs = List.map (fun r -> r.Gb_system.Report.runs) report.Gb_system.Report.regions in
  Alcotest.(check (list int)) "sorted by runs" (List.sort (fun a b -> compare b a) runs) runs;
  (* JSON form renders *)
  let json = Gb_util.Json.to_string (Gb_system.Report.to_json report) in
  Alcotest.(check bool) "json non-trivial" true (String.length json > 100)

(* The report counts guest instructions from the result, not from the
   regions still installed at the end: heat-3d fine-grained in a
   384-bundle code cache evicts and re-translates most of its regions,
   and summing runs x guest insns over the survivors lost nearly all of
   them (35,017 against the result's 854,266). *)
let report_counts_every_region () =
  let module P = Gb_system.Processor in
  let program =
    match Gb_workloads.Polybench.by_name "heat-3d" with
    | Some w -> Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program
    | None -> Alcotest.fail "heat-3d workload missing"
  in
  let base = P.config_for Gb_core.Mitigation.Fine_grained in
  let engine = base.P.engine in
  let config =
    { base with
      P.engine =
        { engine with
          Gb_dbt.Engine.cache =
            { engine.Gb_dbt.Engine.cache with Gb_dbt.Code_cache.capacity = 384 } } }
  in
  let proc = P.create ~config program in
  let r = P.run proc in
  Alcotest.(check bool) "the run evicts" true (r.P.cc_evictions > 0);
  let report = Gb_system.Report.of_processor proc r in
  (match Gb_system.Report.to_json report with
  | Gb_util.Json.Obj fields ->
    Alcotest.(check bool) "guest_insns is the result's" true
      (List.assoc "guest_insns" fields
      = Gb_util.Json.Int (Int64.to_int r.P.guest_insns))
  | _ -> Alcotest.fail "report JSON is not an object");
  let share =
    Int64.to_float (Int64.sub r.P.guest_insns r.P.interp_insns)
    /. Int64.to_float r.P.guest_insns
  in
  Alcotest.(check (float 1e-12)) "translated share" share
    report.Gb_system.Report.translated_share

(* Regression: the report JSON (including the embedded metrics snapshot
   from an active observability sink) must round-trip through our own
   parser unchanged. *)
let report_json_roundtrip () =
  let program = aliasing_program 600 in
  let obs = Gb_obs.Sink.create () in
  let proc =
    Gb_system.Processor.create
      ~config:(Gb_system.Processor.config_for Gb_core.Mitigation.Fine_grained)
      ~obs program
  in
  let result = Gb_system.Processor.run proc in
  let report = Gb_system.Report.of_processor proc result in
  let json = Gb_system.Report.to_json report in
  (match json with
  | Gb_util.Json.Obj fields ->
    (match List.assoc_opt "metrics" fields with
    | Some (Gb_util.Json.Obj mfields) ->
      Alcotest.(check bool) "metrics snapshot has counters" true
        (List.mem_assoc "counters" mfields)
    | _ -> Alcotest.fail "report carries no metrics object")
  | _ -> Alcotest.fail "report JSON is not an object");
  let compact = Gb_util.Json.to_string json in
  (match Gb_util.Json.of_string compact with
  | Ok v -> Alcotest.(check bool) "compact round-trips" true (v = json)
  | Error e -> Alcotest.failf "compact form does not parse: %s" e);
  match Gb_util.Json.of_string (Gb_util.Json.to_string_pretty json) with
  | Ok v -> Alcotest.(check bool) "pretty round-trips" true (v = json)
  | Error e -> Alcotest.failf "pretty form does not parse: %s" e

(* Differential property: a random register/memory loop body produces the
   same architectural result on the interpreter and on the full processor
   under every mitigation mode. *)
let body_regs = Gb_riscv.Reg.[ t0; t1; t2; t3; t4; t5; a0; a1; a2; a3 ]

let gen_body_insn =
  let open QCheck.Gen in
  let open Gb_riscv.Insn in
  let reg = oneofl body_regs in
  let src = oneofl (Gb_riscv.Reg.s2 :: body_regs) in
  let alu_op =
    oneofl [ ADD; SUB; XOR; OR; AND; SLT; SLTU; MUL; ADDW; SUBW; MULW; DIV; REMU ]
  in
  let off = map (fun k -> 8 * k) (int_range 0 31) in
  frequency
    [
      (5, map3 (fun op rd (a, b) -> Op (op, rd, a, b)) alu_op reg (pair src src));
      (2, map3 (fun rd rs imm -> Op_imm (ADDI, rd, rs, imm)) reg src (int_range (-64) 64));
      (2, map2 (fun rd off -> Load (D, false, rd, Gb_riscv.Reg.s0, off)) reg off);
      (1, map2 (fun rd off -> Load (B, true, rd, Gb_riscv.Reg.s0, off)) reg off);
      (2, map2 (fun rs off -> Store (D, rs, Gb_riscv.Reg.s0, off)) src off);
      (1, map2 (fun rs off -> Store (W, rs, Gb_riscv.Reg.s0, off)) src off);
    ]

let gen_program =
  let open QCheck.Gen in
  let* len = int_range 4 24 in
  let* body = list_size (return len) gen_body_insn in
  let* seeds = list_size (return (List.length body_regs)) (int_range 0 1000) in
  let* iters = int_range 40 120 in
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  let init =
    List.map2
      (fun r v -> Asm.Li (r, Int64.of_int v))
      body_regs seeds
  in
  let items =
    [ Asm.La (Reg.s0, "buf");
      Asm.Li (Reg.s1, Int64.of_int iters); Asm.Li (Reg.s2, 0L) ]
    @ init
    @ [ Asm.Label "loop" ]
    @ List.map (fun i -> Asm.Insn i) body
    @ [
        Asm.Insn (Op_imm (ADDI, Reg.s2, Reg.s2, 1));
        Asm.Branch_to (BLT, Reg.s2, Reg.s1, "loop");
      ]
    (* checksum: xor of body registers and all buffer words *)
    @ [ Asm.Li (Reg.s3, 0L) ]
    @ List.map (fun r -> Asm.Insn (Op (XOR, Reg.s3, Reg.s3, r))) body_regs
    @ [
        Asm.Li (Reg.s4, 0L);
        Asm.Label "cksum";
        Asm.Insn (Op (ADD, Reg.s5, Reg.s0, Reg.s4));
        Asm.Insn (Load (D, false, Reg.s6, Reg.s5, 0));
        Asm.Insn (Op (XOR, Reg.s3, Reg.s3, Reg.s6));
        Asm.Insn (Op_imm (ADDI, Reg.s4, Reg.s4, 8));
        Asm.Insn (Op_imm (SLTIU, Reg.s7, Reg.s4, 256));
        Asm.Branch_to (BNE, Reg.s7, Reg.zero, "cksum");
        Asm.Insn (Op_imm (ANDI, Reg.a0, Reg.s3, 255));
        Asm.Li (Reg.a7, 93L);
        Asm.Insn Ecall;
        Asm.Label "buf";
        Asm.Space 256;
      ]
  in
  return (Asm.assemble items)

let differential_prop =
  QCheck.Test.make ~count:40 ~name:"random loops: interp = DBT (all modes)"
    (QCheck.make gen_program) (fun program ->
      let expected = interp_exit program in
      List.for_all
        (fun mode ->
          let r = run_mode mode program in
          r.Gb_system.Processor.exit_code = expected)
        modes)

let qt = QCheck_alcotest.to_alcotest

(* The processor and the reference interpreter must establish the same
   initial stack pointer, so that the differential oracle can compare
   register files from the very first sync point. *)
let sp_convention () =
  let program = square_sum_program 10 in
  let proc = Gb_system.Processor.create program in
  let interp = Gb_system.Processor.interp proc in
  let mem = Gb_system.Processor.mem proc in
  Alcotest.(check int64)
    "processor sp = Interp.default_sp"
    (Gb_riscv.Interp.default_sp mem)
    (Gb_riscv.Regfile.get interp.Gb_riscv.Interp.regs Gb_riscv.Reg.sp)

(* mcb_entries = 0 means "MCB disabled": the processor turns memory
   speculation off in the translator, and execution stays correct. *)
let mcb_disabled_correct () =
  let config =
    {
      Gb_system.Processor.default_config with
      machine =
        {
          Gb_vliw.Machine.default_config with
          Gb_vliw.Machine.mcb_entries = 0;
        };
    }
  in
  List.iter
    (fun program ->
      let expected = interp_exit program in
      let r = Gb_system.Processor.run_program ~config program in
      Alcotest.(check int) "exit code" expected
        r.Gb_system.Processor.exit_code;
      Alcotest.(check int64) "no rollbacks without MCB" 0L
        r.Gb_system.Processor.rollbacks)
    [ square_sum_program 400; aliasing_program 400 ]

(* The machine's MCB size is the one MCB knob: the translator gets one
   tag per entry, above the default 8 as well as below it. gemver
   speculates more loads with 16 entries and runs faster. *)
let mcb_entries_set_tag_budget () =
  let gemver =
    match Gb_workloads.Polybench.by_name "gemver" with
    | Some w -> Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program
    | None -> Alcotest.fail "gemver workload missing"
  in
  let run entries =
    let config =
      {
        Gb_system.Processor.default_config with
        machine =
          {
            Gb_vliw.Machine.default_config with
            Gb_vliw.Machine.mcb_entries = entries;
          };
      }
    in
    let p = Gb_system.Processor.create ~config gemver in
    let r = Gb_system.Processor.run p in
    let tags =
      match
        (Gb_dbt.Engine.config (Gb_system.Processor.engine p))
          .Gb_dbt.Engine.opt_override
      with
      | Some o -> o.Gb_ir.Opt_config.mcb_tags
      | None -> Gb_ir.Opt_config.aggressive.Gb_ir.Opt_config.mcb_tags
    in
    (r, tags)
  in
  let r8, tags8 = run 8 and r16, tags16 = run 16 in
  Alcotest.(check int) "8 entries, 8 tags" 8 tags8;
  Alcotest.(check int) "16 entries, 16 tags" 16 tags16;
  Alcotest.(check int) "same exit code" r8.Gb_system.Processor.exit_code
    r16.Gb_system.Processor.exit_code;
  Alcotest.(check bool) "16 entries change the cycles" true
    (r8.Gb_system.Processor.cycles <> r16.Gb_system.Processor.cycles)

(* The engine's hidden-register budget follows the machine's: with a
   small machine, traces that need more registers stay on the lower tiers
   instead of failing in the pipeline mid-run. *)
let small_hidden_file () =
  let k = List.hd Gb_workloads.Polybench.all in
  let program = Gb_kernelc.Compile.assemble k.Gb_workloads.Polybench.program in
  let mem = Gb_riscv.Mem.create ~size:(1 lsl 20) in
  Gb_riscv.Asm.load mem program;
  let interp = Gb_riscv.Interp.create ~mem ~pc:program.Gb_riscv.Asm.entry () in
  let expected = Gb_riscv.Interp.run interp in
  let base = Gb_system.Processor.config_for Gb_core.Mitigation.Fine_grained in
  List.iter
    (fun n_hidden ->
      let config =
        {
          base with
          Gb_system.Processor.machine =
            { base.Gb_system.Processor.machine with Gb_vliw.Machine.n_hidden };
        }
      in
      let r = Gb_system.Processor.run_program ~config program in
      Alcotest.(check int)
        (Printf.sprintf "exit code, %d hidden" n_hidden)
        expected r.Gb_system.Processor.exit_code;
      Alcotest.(check string)
        (Printf.sprintf "output, %d hidden" n_hidden)
        (Buffer.contents interp.Gb_riscv.Interp.output)
        r.Gb_system.Processor.output)
    [ 16; 4 ]

(* The interpreter's cflush goes through the same rule as the pipeline's:
   a negative address flushes nothing. [-way_bytes + line] is the
   negative address whose truncated set/tag land on that line. The
   thresholds keep every instruction on the interpreter. *)
let negative_cflush_on_interpreter () =
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  let l1d = Gb_cache.Hierarchy.default_config.Gb_cache.Hierarchy.cache in
  let way_bytes = l1d.Gb_cache.Cache.size_bytes / l1d.Gb_cache.Cache.ways in
  let program =
    Asm.assemble
      [
        Asm.La (Reg.t0, "data");
        Asm.Insn (Load (D, false, Reg.t1, Reg.t0, 0));
        Asm.Li (Reg.t2, Int64.of_int (-way_bytes));
        Asm.Insn (Op (ADD, Reg.t2, Reg.t0, Reg.t2));
        Asm.Insn (Cflush Reg.t2);
        Asm.Li (Reg.a0, 0L);
        Asm.Li (Reg.a7, 93L);
        Asm.Insn Ecall;
        Asm.Align 64;
        Asm.Label "data";
        Asm.Dword [ 42L ];
      ]
  in
  let data = Asm.symbol program "data" in
  Alcotest.(check bool) "data line aliases a negative address" true
    (data < way_bytes);
  let base = Gb_system.Processor.default_config in
  let config =
    { base with
      Gb_system.Processor.engine =
        { base.Gb_system.Processor.engine with
          Gb_dbt.Engine.first_pass_threshold = 1000;
          hot_threshold = 1000 } }
  in
  let p = Gb_system.Processor.create ~config ~audit:true program in
  let r = Gb_system.Processor.run p in
  Alcotest.(check int) "nothing translated" 0
    (r.Gb_system.Processor.translations
    + r.Gb_system.Processor.first_pass_translations);
  let l1d = Gb_cache.Hierarchy.cache (Gb_system.Processor.hierarchy p) in
  Alcotest.(check bool) "loaded line still cached" true
    (Gb_cache.Cache.contains l1d data);
  Alcotest.(check int) "no flush counted" 0
    (Gb_cache.Cache.stats l1d).Gb_cache.Cache.flushes

(* GHOSTBUSTERS_INJECT arms the fault controller for any processor run
   that doesn't pass one explicitly (how CI injects faults suite-wide). *)
let inject_env_arming () =
  let var = Gb_system.Inject.env_var in
  let old = Sys.getenv_opt var in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv var (Option.value old ~default:""))
    (fun () ->
      Unix.putenv var "evict:0.25,translate";
      (match Gb_system.Inject.of_env () with
      | None -> Alcotest.fail "of_env did not arm a controller"
      | Some inj ->
          Alcotest.(check (float 1e-9))
            "evict rate" 0.25
            (Gb_system.Inject.rate inj Gb_system.Inject.Evict);
          Alcotest.(check bool)
            "sound spec" true
            (Gb_system.Inject.sound inj));
      Unix.putenv var "";
      Alcotest.(check bool)
        "empty env arms nothing" true
        (Gb_system.Inject.of_env () = None))

(* Every knob out of range is refused by [validate], naming that knob,
   and by [create] with [Invalid_argument]; the values in range that the
   ablations sweep (0 MCB entries, a 16 KiB L1D, one visit) pass. *)
let knobs_validated () =
  let module P = Gb_system.Processor in
  let base = P.config_for Gb_core.Mitigation.Fine_grained in
  let engine f = { base with P.engine = f base.P.engine } in
  let res f =
    engine (fun e ->
        { e with Gb_dbt.Engine.resources = f e.Gb_dbt.Engine.resources })
  in
  let l1d size_bytes ways line_bytes =
    { base with
      P.hier =
        { base.P.hier with
          Gb_cache.Hierarchy.cache =
            { Gb_cache.Cache.size_bytes; ways; line_bytes } } }
  in
  let mcb n =
    { base with P.machine = { base.P.machine with Gb_vliw.Machine.mcb_entries = n } }
  in
  let capacity n =
    engine (fun e ->
        { e with
          Gb_dbt.Engine.cache =
            { e.Gb_dbt.Engine.cache with Gb_dbt.Code_cache.capacity = n } })
  in
  let visits n =
    engine (fun e ->
        { e with
          Gb_dbt.Engine.trace_cfg =
            { e.Gb_dbt.Engine.trace_cfg with
              Gb_dbt.Trace_builder.max_visits = n } })
  in
  let program = Gb_riscv.Asm.assemble [ Gb_riscv.Asm.Insn Gb_riscv.Insn.Ecall ] in
  List.iter
    (fun (what, config, knob) ->
      (match P.validate config with
      | Error (k, _) ->
        Alcotest.(check bool) (what ^ ": names the knob") true (k = knob)
      | Ok () -> Alcotest.failf "%s: accepted" what);
      match P.create ~config program with
      | _ -> Alcotest.failf "%s: created" what
      | exception Invalid_argument _ -> ())
    [
      ("width 0", res (fun r -> { r with Gb_dbt.Sched.width = 0 }), P.Issue_width);
      ("width -1", res (fun r -> { r with Gb_dbt.Sched.width = -1 }), P.Issue_width);
      ( "no memory slot",
        res (fun r -> { r with Gb_dbt.Sched.mem_slots = 0 }),
        P.Issue_width );
      ("-1 MCB entries", mcb (-1), P.Mcb_entries);
      ("3 KiB L1D", l1d 3072 8 64, P.L1d_geometry);
      ("0 ways", l1d 65536 0 64, P.L1d_geometry);
      ("48-byte lines", l1d 65536 8 48, P.L1d_geometry);
      ("capacity 0", capacity 0, P.Code_cache_capacity);
      ("capacity -5", capacity (-5), P.Code_cache_capacity);
      ( "hot -3",
        engine (fun e -> { e with Gb_dbt.Engine.hot_threshold = -3 }),
        P.Hot_threshold );
      ("unroll 0", visits 0, P.Unroll_limit);
    ];
  List.iter
    (fun (what, config) ->
      Alcotest.(check bool) (what ^ ": accepted") true (P.validate config = Ok ()))
    [ ("default", base); ("MCB disabled", mcb 0); ("16 KiB L1D", l1d 16384 8 64);
      ("capacity 1", capacity 1); ("one visit", visits 1) ]

(* Random knob vectors, each knob mostly in range and now and then out
   of it. A vector [validate] rejects is refused by [create] too; an
   accepted one runs its kernel, under a cycle watchdog far below the
   default, to the reference interpreter's exit code and output. *)
let knob_vectors_prop =
  let module P = Gb_system.Processor in
  let kernel name =
    match Gb_workloads.Polybench.by_name name with
    | Some w -> Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program
    | None -> failwith (name ^ " workload missing")
  in
  let kernels =
    lazy
      (List.map
         (fun program ->
           let mem = Gb_riscv.Mem.create ~size:P.default_config.P.mem_size in
           Gb_riscv.Asm.load mem program;
           let interp =
             Gb_riscv.Interp.create ~mem ~pc:program.Gb_riscv.Asm.entry ()
           in
           let exit_code = Gb_riscv.Interp.run interp in
           (program, exit_code, Buffer.contents interp.Gb_riscv.Interp.output))
         [
           square_sum_program 300; aliasing_program 200;
           Gb_kernelc.Compile.assemble
             (Gb_attack.Spectre_v1.program ~secret:"SQUASH" ());
           kernel "nussinov"; kernel "jacobi-1d"; kernel "atax";
         ])
  in
  let knob ok bad = QCheck.Gen.frequency [ (7, ok); (1, bad) ] in
  let gen =
    let open QCheck.Gen in
    let* k = int_range 0 5 in
    let* mode = oneofl modes in
    let* width = knob (int_range 1 6) (int_range (-1) 0) in
    let* mem_slots = knob (int_range 1 3) (return 0) in
    let* mul_slots = knob (int_range 1 2) (return 0) in
    let* branch_slots = knob (int_range 1 2) (return 0) in
    let* mcb_entries = knob (int_range 0 16) (int_range (-2) (-1)) in
    let* size_bytes =
      knob (oneofl [ 16384; 32768; 65536 ]) (oneofl [ 0; 3072 ])
    in
    let* ways = knob (oneofl [ 1; 2; 4; 8 ]) (oneofl [ 0; 3 ]) in
    let* line_bytes = knob (oneofl [ 32; 64 ]) (oneofl [ 0; 48 ]) in
    let* capacity =
      knob (oneofl [ 1; 8; 48; 96; 384; 65536 ]) (int_range (-5) 0)
    in
    let* hot_threshold = knob (int_range 1 40) (int_range (-3) 0) in
    let* max_visits = knob (int_range 1 5) (int_range (-1) 0) in
    let base = P.config_for mode in
    let e = base.P.engine in
    return
      ( k,
        { base with
          P.max_cycles = 50_000_000L;
          hier =
            { base.P.hier with
              Gb_cache.Hierarchy.cache =
                { Gb_cache.Cache.size_bytes; ways; line_bytes } };
          machine = { base.P.machine with Gb_vliw.Machine.mcb_entries };
          engine =
            { e with
              Gb_dbt.Engine.resources =
                { Gb_dbt.Sched.width; mem_slots; mul_slots; branch_slots };
              hot_threshold;
              cache = { e.Gb_dbt.Engine.cache with Gb_dbt.Code_cache.capacity };
              trace_cfg =
                { e.Gb_dbt.Engine.trace_cfg with
                  Gb_dbt.Trace_builder.max_visits } } } )
  in
  let print (k, (c : P.config)) =
    let r = c.P.engine.Gb_dbt.Engine.resources
    and l1d = c.P.hier.Gb_cache.Hierarchy.cache in
    Printf.sprintf
      "kernel %d, %s, width %d (%d/%d/%d), mcb %d, L1D %d/%d/%d, capacity %d, \
       hot %d, visits %d"
      k
      (Gb_core.Mitigation.mode_name c.P.engine.Gb_dbt.Engine.mode)
      r.Gb_dbt.Sched.width r.Gb_dbt.Sched.mem_slots r.Gb_dbt.Sched.mul_slots
      r.Gb_dbt.Sched.branch_slots c.P.machine.Gb_vliw.Machine.mcb_entries
      l1d.Gb_cache.Cache.size_bytes l1d.Gb_cache.Cache.ways
      l1d.Gb_cache.Cache.line_bytes
      c.P.engine.Gb_dbt.Engine.cache.Gb_dbt.Code_cache.capacity
      c.P.engine.Gb_dbt.Engine.hot_threshold
      c.P.engine.Gb_dbt.Engine.trace_cfg.Gb_dbt.Trace_builder.max_visits
  in
  QCheck.Test.make ~count:200 ~name:"random knob vectors: refused or run right"
    (QCheck.make ~print gen) (fun (k, config) ->
      let program, exit_code, output = List.nth (Lazy.force kernels) k in
      match P.validate config with
      | Error _ -> (
        match P.create ~config program with
        | _ -> false
        | exception Invalid_argument _ -> true)
      | Ok () ->
        let r = P.run (P.create ~config program) in
        r.P.exit_code = exit_code && r.P.output = output)

let () =
  Alcotest.run "system"
    [
      ( "equivalence",
        [
          Alcotest.test_case "square sum, all modes" `Quick square_sum_all_modes;
          Alcotest.test_case "aliasing loop, all modes" `Quick
            aliasing_all_modes;
          qt differential_prop;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "dbt engages" `Quick dbt_engages;
          Alcotest.test_case "knobs out of range refused" `Quick knobs_validated;
          qt knob_vectors_prop;
          Alcotest.test_case "speculation engages" `Quick speculation_engages;
          Alcotest.test_case "no-speculation is slower" `Quick no_spec_is_slower;
          Alcotest.test_case "report is consistent" `Quick report_is_consistent;
          Alcotest.test_case "report counts every region that ran" `Quick
            report_counts_every_region;
          Alcotest.test_case "report JSON round-trips" `Quick
            report_json_roundtrip;
          Alcotest.test_case "tier upgrade" `Quick tier_upgrade;
          Alcotest.test_case "adaptive retranslation" `Quick
            adaptive_retranslation;
          Alcotest.test_case "sp convention" `Quick sp_convention;
          Alcotest.test_case "mcb disabled stays correct" `Quick
            mcb_disabled_correct;
          Alcotest.test_case "mcb entries set the tag budget" `Quick
            mcb_entries_set_tag_budget;
          Alcotest.test_case "inject env arming" `Quick inject_env_arming;
          Alcotest.test_case "negative cflush on the interpreter" `Quick
            negative_cflush_on_interpreter;
          Alcotest.test_case "small hidden register file" `Quick
            small_hidden_file;
        ] );
    ]
