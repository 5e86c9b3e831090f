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
      Asm.Jal_to (Reg.zero, "start");
      Asm.Label "buf";
      Asm.Dword [ 0L; 0L; 0L; 0L; 0L; 0L; 0L; 0L ];
      Asm.Label "start";
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
    [ Asm.Jal_to (Reg.zero, "start"); Asm.Label "buf"; Asm.Space 256;
      Asm.Label "start"; Asm.La (Reg.s0, "buf");
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

(* mcb_entries = 0 means "MCB disabled": the processor clamps memory
   speculation out of the translator, and execution stays correct. *)
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
          Alcotest.test_case "speculation engages" `Quick speculation_engages;
          Alcotest.test_case "no-speculation is slower" `Quick no_spec_is_slower;
          Alcotest.test_case "report is consistent" `Quick report_is_consistent;
          Alcotest.test_case "report JSON round-trips" `Quick
            report_json_roundtrip;
          Alcotest.test_case "tier upgrade" `Quick tier_upgrade;
          Alcotest.test_case "adaptive retranslation" `Quick
            adaptive_retranslation;
          Alcotest.test_case "sp convention" `Quick sp_convention;
          Alcotest.test_case "mcb disabled stays correct" `Quick
            mcb_disabled_correct;
          Alcotest.test_case "inject env arming" `Quick inject_env_arming;
        ] );
    ]
