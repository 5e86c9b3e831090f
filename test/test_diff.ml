(* Differential oracle + fault-injection harness. *)

let polybench name =
  match Gb_workloads.Polybench.by_name name with
  | Some k -> k.Gb_workloads.Polybench.program
  | None -> Alcotest.failf "unknown polybench kernel %S" name

let check_clean what (r : Gb_diff.Oracle.report) =
  (match r.divergence with
  | Some d ->
    Alcotest.failf "%s: unexpected divergence: %s" what
      (Format.asprintf "%a" Gb_diff.Oracle.pp_divergence d)
  | None -> ());
  (match r.trap with
  | Some m -> Alcotest.failf "%s: DBT run trapped: %s" what m
  | None -> ());
  Alcotest.(check bool) (what ^ " clean") true (Gb_diff.Oracle.clean r)

(* --- clean differential runs ------------------------------------------ *)

let test_clean_kernel () =
  let r = Gb_diff.Oracle.run_kernel (polybench "gemm") in
  check_clean "matmul" r;
  Alcotest.(check bool) "synced at trace exits" true (r.syncs > 0);
  Alcotest.(check bool) "reference executed" true
    (Int64.compare r.ref_insns 0L > 0)

let test_clean_all_modes () =
  List.iter
    (fun mode ->
      let program =
        Gb_attack.Spectre_v1.program ~secret:"DIFF!" () |> fun ast ->
        Gb_kernelc.Compile.assemble ast
      in
      let config = Gb_system.Processor.config_for mode in
      let r = Gb_diff.Oracle.run ~config program in
      check_clean
        (Printf.sprintf "spectre-v1 under %s" (Gb_core.Mitigation.mode_name mode))
        r)
    Gb_core.Mitigation.all_modes

let test_divergence_counter () =
  let obs = Gb_obs.Sink.create () in
  let r = Gb_diff.Oracle.run_kernel ~obs (polybench "atax") in
  check_clean "atax" r;
  Alcotest.(check (option int)) "diff.divergences = 0" (Some 0)
    (List.assoc_opt "diff.divergences" (Gb_obs.Sink.counters obs))

(* --- fault injection: every recoverable kind recovers ------------------ *)

let test_inject_recovers kind () =
  let spec = [ (kind, Gb_system.Inject.default_rate kind) ] in
  let r =
    Gb_diff.Oracle.run_kernel ~seed:7L ~inject:spec (polybench "gemm")
  in
  check_clean (Gb_system.Inject.kind_name kind) r;
  Alcotest.(check int)
    (Gb_system.Inject.kind_name kind ^ " recovered = injected")
    r.injected r.recovered

let test_inject_fires () =
  (* at a forced rate the harness must actually inject something, or the
     recovery gates are vacuous *)
  let r =
    Gb_diff.Oracle.run_kernel ~seed:3L
      ~inject:[ (Gb_system.Inject.Translate_fail, 1.0) ]
      (polybench "gemm")
  in
  check_clean "translate:1.0" r;
  Alcotest.(check bool) "faults were injected" true (r.injected > 0)

let test_inject_combined () =
  let spec =
    List.filter_map
      (fun k ->
        if Gb_system.Inject.recoverable k then
          Some (k, Gb_system.Inject.default_rate k)
        else None)
      Gb_system.Inject.all_kinds
  in
  let r = Gb_diff.Oracle.run_kernel ~seed:11L ~inject:spec (polybench "mvt") in
  check_clean "all recoverable kinds" r

(* --- sensitivity control: mcb-suppress must be DETECTED ---------------- *)

let test_suppress_detected () =
  (* Suppressing real MCB conflicts commits stale speculative values; the
     oracle proves its own sensitivity by catching that as a divergence.
     Spectre v4 under the unsafe mode genuinely misorders speculated
     loads against stores, so suppressed conflicts corrupt real state. *)
  let program = Gb_attack.Spectre_v4.program ~secret:"DIFF!" () in
  let config = Gb_system.Processor.config_for Gb_core.Mitigation.Unsafe in
  let detected = ref false in
  (try
     for seed = 1 to 8 do
       let r =
         Gb_diff.Oracle.run_kernel ~config ~seed:(Int64.of_int seed)
           ~inject:[ (Gb_system.Inject.Mcb_suppress, 1.0) ]
           program
       in
       if r.injected > 0 && not (Gb_diff.Oracle.clean r) then begin
         detected := true;
         raise Exit
       end
     done
   with Exit -> ());
  Alcotest.(check bool) "suppressed conflicts caught as divergence" true
    !detected

(* --- qcheck: random kernels x random fault schedules -------------------- *)

(* The seed of this binary's properties: QCHECK_SEED when it is set, a
   fresh one otherwise. Each property draws from its own state made from
   it, as qcheck-alcotest's default does, and each failure message ends
   with it, so a failure found in a long suite log can be rerun. *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some seed -> seed
  | None ->
    Random.self_init ();
    Random.int 1_000_000_000

let rerun = Printf.sprintf "rerun with QCHECK_SEED=%d" qcheck_seed

let kernel_gen =
  (* small arithmetic kernels over a few scalars and one array, with a
     loop hot enough to promote to a trace; every generated program is
     deterministic, so the two sides must agree exactly *)
  let open QCheck.Gen in
  let open Gb_kernelc.Ast in
  let c n = Const (Int64.of_int n) in
  let var = oneofl [ "a"; "b"; "c"; "d" ] in
  let leaf =
    oneof
      [ map (fun n -> c (n land 0xff)) small_nat; map (fun v -> Var v) var ]
  in
  let expr =
    sized_size (int_range 0 3)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map3
                   (fun op l r -> Bin (op, l, r))
                   (oneofl [ Add; Sub; Mul; And; Or; Xor ])
                   (self (n / 2)) (self (n / 2));
               ])
  in
  let stmt =
    oneof
      [
        map2 (fun v e -> Set (v, e)) var expr;
        map2
          (fun i e -> Arr_store ("buf", [ c (i land 7) ], e))
          small_nat expr;
        map2
          (fun e t -> If (Bin (Lt, Var "i", e), t, [ Set ("d", c 9) ]))
          expr
          (map (fun e -> [ Set ("b", e) ]) expr);
      ]
  in
  let body = list_size (int_range 1 5) stmt in
  map
    (fun stmts ->
      {
        arrays = [ { a_name = "buf"; a_ty = I64; a_dims = [ 8 ]; a_init = Zero } ];
        body =
          [
            Let ("a", c 1);
            Let ("b", c 2);
            Let ("c", c 3);
            Let ("d", c 4);
            For
              ( "i", c 0, c 64,
                stmts
                @ [
                    Set ("a", Bin (Add, Var "a", Var "i"));
                    Arr_store ("buf", [ Bin (And, Var "i", c 7) ], Var "a");
                  ] );
            Set ("a", Bin (Add, Var "a", Arr ("buf", [ c 3 ])));
            Set
              ( "a",
                Bin
                  ( Add,
                    Var "a",
                    Bin (Add, Var "b", Bin (Add, Var "c", Var "d")) ) );
          ];
        result = Bin (And, Var "a", c 255);
      })
    body

let fault_schedule_gen =
  let open QCheck.Gen in
  let recoverable =
    List.filter Gb_system.Inject.recoverable Gb_system.Inject.all_kinds
  in
  let one =
    map2
      (fun k r -> (k, float_of_int (1 + (r land 15)) /. 64.))
      (oneofl recoverable) small_nat
  in
  list_size (int_range 0 3) one

let prop_random_diff =
  QCheck.Test.make ~count:30
    ~name:"random kernels x random fault schedules: zero divergences"
    (QCheck.make
       QCheck.Gen.(triple kernel_gen fault_schedule_gen (map Int64.of_int small_nat)))
    (fun (kernel, schedule, seed) ->
      List.iter
        (fun mode ->
          let config = Gb_system.Processor.config_for mode in
          let inject = if schedule = [] then None else Some schedule in
          let r = Gb_diff.Oracle.run_kernel ~config ?inject ~seed kernel in
          if not (Gb_diff.Oracle.clean r) then
            QCheck.Test.fail_reportf
              "mode %s, schedule %s, seed %Ld: %s (injected %d, recovered \
               %d); %s"
              (Gb_core.Mitigation.mode_name mode)
              (match inject with
              | Some s -> Gb_system.Inject.spec_name s
              | None -> "none")
              seed
              (match r.divergence with
              | Some d -> Format.asprintf "%a" Gb_diff.Oracle.pp_divergence d
              | None ->
                Option.fold ~none:"unclean" ~some:(( ^ ) "trap: ") r.trap)
              r.injected r.recovered rerun)
        Gb_core.Mitigation.all_modes;
      true)

(* --- W^X: stores into text and fetches outside it ---------------------- *)

let modes = Gb_core.Mitigation.all_modes

(* The processor configs a guest trap must not depend on: every mode,
   with the default code cache and with a 48-bundle one that evicts. *)
let processor_configs =
  List.concat_map
    (fun mode ->
      let c = Gb_system.Processor.config_for mode in
      let e = c.Gb_system.Processor.engine in
      let cache =
        { e.Gb_dbt.Engine.cache with Gb_dbt.Code_cache.capacity = 48 }
      in
      let small =
        { c with
          Gb_system.Processor.engine = { e with Gb_dbt.Engine.cache } }
      in
      let name = Gb_core.Mitigation.mode_name mode in
      [ (name, c); (name ^ ", 48 bundles", small) ])
    modes

let interp_run program =
  let mem = Gb_riscv.Mem.create ~size:(1 lsl 20) in
  Gb_riscv.Asm.load mem program;
  Gb_riscv.Interp.run
    (Gb_riscv.Interp.create ~mem ~pc:program.Gb_riscv.Asm.entry ())

(* [f ()] must raise [Mem.Fault addr] *)
let expect_fault what addr f =
  match f () with
  | _ -> Alcotest.failf "%s: ran to completion" what
  | exception Gb_riscv.Mem.Fault a ->
    Alcotest.(check int) (what ^ ": fault address") addr a

(* Both sides of the oracle must stop with the same trap: no divergence,
   and the DBT side's trap message is [trap]. *)
let expect_clean_trap what trap (r : Gb_diff.Oracle.report) =
  (match r.divergence with
  | Some d ->
    Alcotest.failf "%s: divergence: %s" what
      (Format.asprintf "%a" Gb_diff.Oracle.pp_divergence d)
  | None -> ());
  Alcotest.(check (option string)) (what ^ ": trap") (Some trap) r.trap

(* The self-modifying probe: 60 iterations of [a0 += 1], and at
   iteration [k] a store that would rewrite that [addi a0,a0,1] into
   [addi a0,a0,100]. Without W^X the answer depended on which tier had
   decoded the loop when the store landed. The branchy probe guards the
   store with a branch, so translated code leaves the loop to run it;
   the branch-free one stores every iteration, into a buffer except at
   iteration [k], so from k = 30 on the trace itself runs it. *)
let smc_probe ~branch_free k =
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  let store = Asm.Insn (Store (W, Reg.t1, Reg.t0, 0)) in
  Asm.assemble
    ([ Asm.Li (Reg.a0, 0L); Asm.Li (Reg.s1, 60L); Asm.Li (Reg.s2, 0L);
       Asm.Li (Reg.s3, Int64.of_int k); Asm.La (Reg.t0, "patch");
       Asm.La (Reg.t4, "buf");
       Asm.Insn (Op (SUB, Reg.t3, Reg.t0, Reg.t4));
       Asm.Li
         (Reg.t1,
          Int64.of_int (Encode.encode (Op_imm (ADDI, Reg.a0, Reg.a0, 100))));
       Asm.Label "loop" ]
    @ (if branch_free then
         (* t0 = buf + (i = k) * (patch - buf) *)
         [ Asm.Insn (Op (XOR, Reg.t2, Reg.s2, Reg.s3));
           Asm.Insn (Op_imm (SLTIU, Reg.t2, Reg.t2, 1));
           Asm.Insn (Op (MUL, Reg.t2, Reg.t2, Reg.t3));
           Asm.Insn (Op (ADD, Reg.t0, Reg.t4, Reg.t2)); store ]
       else [ Asm.Branch_to (BNE, Reg.s2, Reg.s3, "patch"); store ])
    @ [ Asm.Label "patch"; Asm.Insn (Op_imm (ADDI, Reg.a0, Reg.a0, 1));
        Asm.Insn (Op_imm (ADDI, Reg.s2, Reg.s2, 1));
        Asm.Branch_to (BLT, Reg.s2, Reg.s1, "loop"); Asm.Li (Reg.a7, 93L);
        Asm.Insn Ecall; Asm.Label "buf"; Asm.Dword [ 0L ] ])

let test_smc_probe () =
  List.iter
    (fun (branch_free, k) ->
      let program = smc_probe ~branch_free k in
      let patch = Gb_riscv.Asm.symbol program "patch" in
      let loop = Gb_riscv.Asm.symbol program "loop" in
      let what =
        Printf.sprintf "%s, k = %d"
          (if branch_free then "branch-free" else "branchy")
          k
      in
      expect_fault (what ^ ", interpreter") patch (fun () ->
          interp_run program);
      List.iter
        (fun (name, config) ->
          let p = Gb_system.Processor.create ~config program in
          let what = Printf.sprintf "%s, %s" what name in
          expect_fault what patch (fun () -> Gb_system.Processor.run p);
          (* from k = 30 on the loop runs translated when the store comes *)
          let traces =
            List.filter
              (fun r -> r.Gb_dbt.Engine.r_tier = `Trace)
              (Gb_dbt.Engine.regions (Gb_system.Processor.engine p))
          in
          Alcotest.(check bool) (what ^ ": a trace installed") (k >= 30)
            (traces <> []);
          (* the pipeline raised it: the dispatcher's pc is still the
             trace's entry *)
          if branch_free && k >= 30 then
            Alcotest.(check int) (what ^ ": raised in the trace") loop
              (Gb_system.Processor.interp p).Gb_riscv.Interp.pc)
        processor_configs;
      List.iter
        (fun mode ->
          expect_clean_trap
            (Printf.sprintf "%s, oracle under %s" what
               (Gb_core.Mitigation.mode_name mode))
            (Printf.sprintf "memory fault at 0x%x" patch)
            (Gb_diff.Oracle.run ~config:(Gb_system.Processor.config_for mode)
               program))
        modes)
    (List.concat_map
       (fun k -> [ (false, k); (true, k) ])
       [ 0; 2; 5; 10; 30; 50 ])

(* A [jal] into data is a fetch fault whichever tier runs it: the
   interpreter by default, a first-pass block or a trace when the first
   arrival promotes. *)
let test_jal_into_data () =
  let open Gb_riscv in
  let program =
    Asm.assemble
      [ Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.a0, Reg.zero, 1));
        Asm.Jal_to (Reg.zero, "data"); Asm.Li (Reg.a7, 93L);
        Asm.Insn Insn.Ecall; Asm.Label "data"; Asm.Dword [ 0x73L ] ]
  in
  let data = Asm.symbol program "data" in
  let trap =
    Printf.sprintf
      "instruction fetch fault at pc 0x%x (misaligned or outside text)" data
  in
  let expect_trap what f =
    match f () with
    | _ -> Alcotest.failf "%s: ran to completion" what
    | exception Interp.Trap m -> Alcotest.(check string) what trap m
  in
  expect_trap "interpreter" (fun () -> interp_run program);
  let base = Gb_system.Processor.default_config in
  let with_thresholds first hot =
    { base with
      Gb_system.Processor.engine =
        { base.Gb_system.Processor.engine with
          Gb_dbt.Engine.first_pass_threshold = first;
          hot_threshold = hot } }
  in
  List.iter
    (fun (name, config, tier) ->
      let p = Gb_system.Processor.create ~config program in
      expect_trap name (fun () -> Gb_system.Processor.run p);
      let regions =
        Gb_dbt.Engine.regions (Gb_system.Processor.engine p)
      in
      Alcotest.(check (list string))
        (name ^ ": the tier that ran the jump")
        tier
        (List.map
           (fun r ->
             match r.Gb_dbt.Engine.r_tier with
             | `Block -> "block"
             | `Trace -> "trace")
           regions);
      expect_clean_trap (name ^ ", oracle") trap
        (Gb_diff.Oracle.run ~config program))
    [ ("processor", base, []);
      ("first-pass block", with_thresholds 1 1000, [ "block" ]);
      ("trace", with_thresholds 1000 1, [ "trace" ]) ]

(* Two equal memory faults are one clean trap, not a divergence. *)
let test_equal_faults () =
  let open Gb_riscv in
  let program =
    Asm.assemble
      [ Asm.Insn (Insn.Lui (Reg.t0, 0x200));
        Asm.Insn (Insn.Store (Insn.D, Reg.zero, Reg.t0, 0));
        Asm.Li (Reg.a7, 93L); Asm.Insn Insn.Ecall ]
  in
  expect_clean_trap "store past the end of memory" "memory fault at 0x200000"
    (Gb_diff.Oracle.run program)

(* A guest that never halts meets the processor's cycle watchdog and the
   reference's instruction budget: both sides agree it did not finish,
   so the oracle reports the trap and no divergence, under every mode. *)
let test_endless_loop () =
  let open Gb_riscv in
  let program =
    Asm.assemble
      [ Asm.Li (Reg.a0, 0L); Asm.Label "loop";
        Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.a0, Reg.a0, 1));
        Asm.Jal_to (Reg.zero, "loop") ]
  in
  List.iter
    (fun mode ->
      let config =
        { (Gb_system.Processor.config_for mode) with
          Gb_system.Processor.max_cycles = 200_000L }
      in
      expect_clean_trap
        (Gb_core.Mitigation.mode_name mode)
        "cycle watchdog exceeded"
        (Gb_diff.Oracle.run ~config program))
    Gb_core.Mitigation.all_modes

(* --- qcheck: raw guest words ------------------------------------------- *)

(* Programs of random rv64im words: each is a random word with one of
   the decoder's major opcodes, passed through [Decode], illegal ones
   dropped. Conditional branches and [jal]s are re-aimed forward within
   the body, so the only loop is the one around it (30 passes: past the
   hot threshold). The address of every load, store, cflush and [jalr]
   comes from a register the body never writes: the data buffer mostly,
   and otherwise text ahead of the body's exit, the data's start, near
   0, near the end of memory, or near [max_int] of the host or of the
   guest; immediates make them misaligned too. *)
let raw_program_gen =
  let open QCheck.Gen in
  let open Gb_riscv in
  let opcodes =
    [ 0x13; 0x1b; 0x33; 0x3b; 0x37; 0x17; 0x03; 0x23; 0x63; 0x6f; 0x67;
      0x73; 0x0f; 0x0b ]
  in
  let word =
    map2 (fun op hi -> op lor (hi lsl 7)) (oneofl opcodes) (int_bound 0x1ffffff)
  in
  (* s0: the data buffer's middle; s1-s6: wild; s11: the loop counter *)
  let reserved = [ 8; 9; 18; 19; 20; 21; 22; 27 ] in
  let free rd = if List.mem rd reserved then Reg.t6 else rd in
  let base =
    frequency [ (3, return Reg.s0); (1, oneofl [ 9; 18; 19; 20; 21; 22 ]) ]
  in
  let rec decodable () =
    word >>= fun w ->
    match Decode.decode w with
    | insn -> return insn
    | exception Decode.Illegal _ -> decodable ()
  in
  let* n = int_range 1 24 in
  let* body = list_repeat n (decodable ()) in
  let* forward = list_repeat n (int_range 1 8) in
  let* bases = list_repeat n base in
  let* jalr_offs = list_repeat n (oneofl [ 0; 1; 2; 4; 8 ]) in
  let label i = if i >= n then "next" else Printf.sprintf "b%d" i in
  let fix i insn fwd rs1 jalr_off =
    let target = label (i + fwd) in
    let open Insn in
    match insn with
    | Op_imm (op, rd, a, imm) -> Asm.Insn (Op_imm (op, free rd, a, imm))
    | Op (op, rd, a, b) -> Asm.Insn (Op (op, free rd, a, b))
    | Lui (rd, imm) -> Asm.Insn (Lui (free rd, imm))
    | Auipc (rd, imm) -> Asm.Insn (Auipc (free rd, imm))
    | Load (w, u, rd, _, off) -> Asm.Insn (Load (w, u, free rd, rs1, off))
    | Store (w, src, _, off) -> Asm.Insn (Store (w, src, rs1, off))
    | Branch (c, a, b, _) -> Asm.Branch_to (c, a, b, target)
    | Jal (rd, _) -> Asm.Jal_to (free rd, target)
    | Jalr (rd, _, off) ->
      (* never back into text, which would loop: s1 is text, so aim at
         the exit or next to it; s2 is the end of text *)
      let off =
        if rs1 = Reg.s1 then jalr_off else if rs1 = Reg.s2 then abs off else off
      in
      Asm.Insn (Jalr (free rd, rs1, off))
    | Rdcycle rd -> Asm.Insn (Rdcycle (free rd))
    | Cflush _ -> Asm.Insn (Cflush rs1)
    | Ecall | Fence -> Asm.Insn insn
  in
  let body =
    List.concat
      (List.mapi
         (fun i (insn, (fwd, (rs1, jalr_off))) ->
           [ Asm.Label (label i); fix i insn fwd rs1 jalr_off ])
         (List.combine body
            (List.combine forward (List.combine bases jalr_offs))))
  in
  let open Insn in
  let near_max shift =
    (* [-4 lsr shift]: 4 below the host's [max_int] at 2, the guest's at 1 *)
    [ Asm.Li (Reg.t0, -4L); Asm.Insn (Op_imm (SRLI, Reg.t0, Reg.t0, shift)) ]
  in
  return
    (Asm.assemble
       ([ Asm.Li (Reg.s11, 30L); Asm.La (Reg.s0, "data");
          Asm.Insn (Op_imm (ADDI, Reg.s0, Reg.s0, 2047));
          Asm.La (Reg.s1, "exit"); Asm.La (Reg.s2, "data");
          Asm.Li (Reg.s3, 16L); Asm.Li (Reg.s4, 0xffff8L) ]
       @ near_max 2
       @ [ Asm.Insn (Op (ADD, Reg.s5, Reg.t0, Reg.zero)) ]
       @ near_max 1
       @ [ Asm.Insn (Op (ADD, Reg.s6, Reg.t0, Reg.zero)); Asm.Label "top" ]
       @ body
       @ [ Asm.Label "next"; Asm.Insn (Op_imm (ADDI, Reg.s11, Reg.s11, -1));
           Asm.Branch_to (BNE, Reg.s11, Reg.zero, "top"); Asm.Label "exit";
           Asm.Li (Reg.a7, 93L); Asm.Insn Ecall; Asm.Insn Ecall;
           Asm.Insn Ecall; Asm.Label "data"; Asm.Space 4096 ]))

let prop_raw_words =
  QCheck.Test.make ~count:300
    ~name:"raw guest words: equal results or equal clean traps"
    (QCheck.make
       ~print:(fun p ->
         (* the text: the data is 4 KiB of zeros *)
         let open Gb_riscv in
         let mem = Mem.create ~size:(1 lsl 20) in
         Asm.load mem p;
         Format.asprintf "%a"
           (Disasm.pp_program ~symbols:p.Asm.symbols)
           (Disasm.disassemble mem ~addr:p.Asm.base
              ~len:(p.Asm.text_end - p.Asm.base)))
       raw_program_gen)
    (fun program ->
      List.for_all
        (fun mode ->
          let config =
            { (Gb_system.Processor.config_for mode) with
              Gb_system.Processor.max_cycles = 1_000_000L }
          in
          let r = Gb_diff.Oracle.run ~config program in
          match r.divergence with
          | None -> true
          | Some d ->
            QCheck.Test.fail_reportf "%s: %s; %s"
              (Gb_core.Mitigation.mode_name mode)
              (Format.asprintf "%a" Gb_diff.Oracle.pp_divergence d)
              rerun)
        modes)

(* --- matrix ------------------------------------------------------------ *)

let test_matrix_smoke () =
  let m =
    Gb_diff.Matrix.run ~seed:5L
      ~attacks:[ "spectre-v1" ]
      ~kernels:[ "gemm" ]
      ~injects:[ None; Some [ (Gb_system.Inject.Evict, 0.05) ] ]
      ()
  in
  Alcotest.(check bool) "matrix rows" true (List.length m.Gb_diff.Matrix.rows > 0);
  Alcotest.(check int) "matrix divergences" 0 m.Gb_diff.Matrix.divergences;
  Alcotest.(check bool) "sensitivity control detected" true
    m.Gb_diff.Matrix.sensitivity_detected;
  (* JSON renders without raising *)
  ignore (Gb_util.Json.to_string (Gb_diff.Matrix.to_json m))

let () =
  Printf.printf "qcheck random seed: %d\n%!" qcheck_seed;
  let qsuite =
    List.map
      (fun t ->
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| qcheck_seed |])
          t)
      [ prop_random_diff; prop_raw_words ]
  in
  Alcotest.run "diff"
    [
      ( "oracle",
        [
          Alcotest.test_case "clean kernel run" `Quick test_clean_kernel;
          Alcotest.test_case "spectre-v1 x all modes" `Quick test_clean_all_modes;
          Alcotest.test_case "divergence counter stays 0" `Quick
            test_divergence_counter;
        ] );
      ( "inject",
        Alcotest.test_case "injection fires" `Quick test_inject_fires
        :: Alcotest.test_case "combined kinds recover" `Quick test_inject_combined
        :: List.filter_map
             (fun k ->
               if Gb_system.Inject.recoverable k then
                 Some
                   (Alcotest.test_case
                      ("recovers from " ^ Gb_system.Inject.kind_name k)
                      `Quick (test_inject_recovers k))
               else None)
             Gb_system.Inject.all_kinds );
      ( "sensitivity",
        [
          Alcotest.test_case "mcb-suppress is detected" `Quick
            test_suppress_detected;
          Alcotest.test_case "an endless loop is not a divergence" `Quick
            test_endless_loop;
        ] );
      ( "wx",
        [
          Alcotest.test_case "self-modifying store traps alike" `Quick
            test_smc_probe;
          Alcotest.test_case "jal into data is a fetch fault" `Quick
            test_jal_into_data;
          Alcotest.test_case "equal memory faults are a clean trap" `Quick
            test_equal_faults;
        ] );
      ("matrix", [ Alcotest.test_case "smoke" `Quick test_matrix_smoke ]);
      ("property", qsuite);
    ]
