(* Tests for the IR builder, the poisoning analysis, and the mitigation:
   hand-built guest traces with known speculation structure, plus a
   property test that the analyze/constrain loop reaches a pattern-free
   fixpoint on random traces. *)

let lat = Gb_ir.Latency.default

let step ?exit_cond pc insn = { Gb_ir.Gtrace.pc; insn; exit_cond }

let gtrace steps fall_pc = { Gb_ir.Gtrace.entry = 0x1000; steps; fall_pc }

(* The Figure-1 gadget: bounds check, then the two dependent loads.
     0x1000: slt t2 <- (a0 < t0)            (index < size)
     0x1004: beq t2, x0 -> exit (biased not taken)
     0x1008: add t1 <- s0 + a0              (&buffer + index)
     0x100c: lb  t1 <- [t1]                 (a = buffer[index])
     0x1010: sll t1 <- t1 << 7
     0x1014: add t1 <- s1 + t1              (&array_val + a*128)
     0x1018: lb  t3 <- [t1]                 (leaking access)        *)
let v1_trace =
  let open Gb_riscv.Insn in
  gtrace
    [
      step 0x1000 (Op (SLT, Gb_riscv.Reg.t2, Gb_riscv.Reg.a0, Gb_riscv.Reg.t0));
      step 0x1004
        (Branch (BEQ, Gb_riscv.Reg.t2, Gb_riscv.Reg.zero, 0x100))
        ~exit_cond:(BEQ, 0x1104);
      step 0x1008 (Op (ADD, Gb_riscv.Reg.t1, Gb_riscv.Reg.s0, Gb_riscv.Reg.a0));
      step 0x100c (Load (B, true, Gb_riscv.Reg.t1, Gb_riscv.Reg.t1, 0));
      step 0x1010 (Op_imm (SLLI, Gb_riscv.Reg.t1, Gb_riscv.Reg.t1, 7));
      step 0x1014 (Op (ADD, Gb_riscv.Reg.t1, Gb_riscv.Reg.s1, Gb_riscv.Reg.t1));
      step 0x1018 (Load (B, true, Gb_riscv.Reg.t3, Gb_riscv.Reg.t1, 0));
    ]
    0x101c

(* The Figure-2 gadget: store, slow store, then the dependent load chain. *)
let v4_trace =
  let open Gb_riscv.Insn in
  gtrace
    [
      step 0x1000 (Store (D, Gb_riscv.Reg.a0, Gb_riscv.Reg.s0, 0));
      step 0x1004 (Op (MUL, Gb_riscv.Reg.t0, Gb_riscv.Reg.a1, Gb_riscv.Reg.a1));
      step 0x1008 (Store (D, Gb_riscv.Reg.a2, Gb_riscv.Reg.t0, 0));
      step 0x100c (Load (D, false, Gb_riscv.Reg.t1, Gb_riscv.Reg.s0, 0));
      step 0x1010 (Op (ADD, Gb_riscv.Reg.t2, Gb_riscv.Reg.s1, Gb_riscv.Reg.t1));
      step 0x1014 (Load (B, true, Gb_riscv.Reg.t3, Gb_riscv.Reg.t2, 0));
    ]
    0x1018

let build ?(opt = Gb_ir.Opt_config.aggressive) trace =
  Gb_ir.Build.build ~opt ~lat trace

let count_patterns g = List.length (Gb_core.Poison.analyze g).Gb_core.Poison.patterns

let v1_pattern_detected () =
  let g = build v1_trace in
  let { Gb_core.Poison.poisoned; patterns } = Gb_core.Poison.analyze g in
  Alcotest.(check int) "one leaking load" 1 (List.length patterns);
  let leak = List.hd patterns in
  let node = Gb_ir.Dfg.node g leak in
  Alcotest.(check bool) "it is a load" true (Gb_ir.Dfg.is_load node.Gb_ir.Dfg.kind);
  Alcotest.(check int) "it is the second load (guest pc)" 0x1018
    node.Gb_ir.Dfg.guest_pc;
  (* the first load's output is the poison source *)
  let first_load =
    Array.to_list (Gb_ir.Dfg.nodes g)
    |> List.find (fun n ->
           Gb_ir.Dfg.is_load n.Gb_ir.Dfg.kind && n.Gb_ir.Dfg.guest_pc = 0x100c)
  in
  Alcotest.(check bool) "first load poisoned" true
    poisoned.(first_load.Gb_ir.Dfg.id)

let v1_no_pattern_without_branch_spec () =
  let opt = { Gb_ir.Opt_config.aggressive with Gb_ir.Opt_config.branch_spec = false } in
  let g = build ~opt v1_trace in
  Alcotest.(check int) "no speculative loads, no pattern" 0 (count_patterns g)

let v4_pattern_detected () =
  let g = build v4_trace in
  let { Gb_core.Poison.patterns; _ } = Gb_core.Poison.analyze g in
  (* the dependent byte load leaks; there is no preceding branch so only
     memory speculation is involved *)
  Alcotest.(check bool) "pattern found" true (patterns <> []);
  let pcs =
    List.map (fun id -> (Gb_ir.Dfg.node g id).Gb_ir.Dfg.guest_pc) patterns
  in
  Alcotest.(check bool) "the dependent load leaks" true (List.mem 0x1014 pcs)

let v4_clean_address_is_no_pattern () =
  (* same shape but the second load's address comes from a register, not
     from the first load: no pattern *)
  let open Gb_riscv.Insn in
  let trace =
    gtrace
      [
        step 0x1000 (Store (D, Gb_riscv.Reg.a0, Gb_riscv.Reg.s0, 0));
        step 0x1004 (Load (D, false, Gb_riscv.Reg.t1, Gb_riscv.Reg.s0, 0));
        step 0x1008 (Load (B, true, Gb_riscv.Reg.t3, Gb_riscv.Reg.s1, 0));
      ]
      0x100c
  in
  let g = build trace in
  Alcotest.(check int) "no pattern" 0 (count_patterns g)

let fine_grained_fixpoint () =
  let g = build v4_trace in
  let report = Gb_core.Mitigation.apply Gb_core.Mitigation.Fine_grained ~lat g in
  Alcotest.(check bool) "found patterns" true
    (report.Gb_core.Mitigation.patterns_found > 0);
  Alcotest.(check int) "no pattern survives" 0 (count_patterns g);
  Alcotest.(check int) "no fences in fine-grained mode" 0
    report.Gb_core.Mitigation.fences_inserted

let fence_mode_inserts_fences () =
  let g = build v1_trace in
  let report = Gb_core.Mitigation.apply Gb_core.Mitigation.Fence_on_detect ~lat g in
  Alcotest.(check bool) "fences inserted" true
    (report.Gb_core.Mitigation.fences_inserted > 0);
  Alcotest.(check int) "no pattern survives" 0 (count_patterns g)

let unsafe_mode_is_identity () =
  let g = build v1_trace in
  let before = Gb_ir.Dfg.n_nodes g in
  let report = Gb_core.Mitigation.apply Gb_core.Mitigation.Unsafe ~lat g in
  Alcotest.(check int) "no nodes added" before (Gb_ir.Dfg.n_nodes g);
  Alcotest.(check int) "nothing constrained" 0
    report.Gb_core.Mitigation.loads_constrained;
  Alcotest.(check bool) "pattern still present" true (count_patterns g > 0)

(* one parser for every surface that names a mode (the CLI's --mode, the
   bench's --modes) *)
let mode_names_parse () =
  let module M = Gb_core.Mitigation in
  let parses_to what s m =
    match M.mode_of_string s with
    | Ok m' -> Alcotest.(check string) what (M.mode_name m) (M.mode_name m')
    | Error e -> Alcotest.failf "%s: %S rejected: %s" what s e
  in
  List.iter (fun m -> parses_to "mode name" (M.mode_name m) m) M.all_modes;
  List.iter (fun (alias, m) -> parses_to "alias" alias m) M.mode_aliases;
  match M.mode_of_string "fast" with
  | Ok _ -> Alcotest.fail "unknown mode accepted"
  | Error e ->
    List.iter
      (fun m ->
        let name = M.mode_name m in
        let n = String.length name and len = String.length e in
        let rec mentions i =
          i + n <= len && (String.sub e i n = name || mentions (i + 1))
        in
        Alcotest.(check bool) ("error lists " ^ name) true (mentions 0))
      M.all_modes

let commit_maps_only_changed_regs () =
  let g = build v1_trace in
  Gb_ir.Dfg.iter_nodes g (fun n ->
      List.iter
        (fun (r, value) ->
          Alcotest.(check bool) "guest register" true (r >= 1 && r < 32);
          match value with
          | Gb_ir.Dfg.Reg_in r' ->
            Alcotest.(check bool) "no identity commits" false (r = r')
          | Gb_ir.Dfg.Node _ | Gb_ir.Dfg.Imm _ -> ())
        n.Gb_ir.Dfg.commit_map)

let chk_guards_speculative_load () =
  let g = build v4_trace in
  let chks =
    Array.to_list (Gb_ir.Dfg.nodes g)
    |> List.filter_map (fun n ->
           match n.Gb_ir.Dfg.kind with
           | Gb_ir.Dfg.Kchk load -> Some (n, load)
           | _ -> None)
  in
  Alcotest.(check bool) "chk nodes exist" true (chks <> []);
  List.iter
    (fun ((chk : Gb_ir.Dfg.node), load_id) ->
      let load = Gb_ir.Dfg.node g load_id in
      Alcotest.(check bool) "guards a load" true
        (Gb_ir.Dfg.is_load load.Gb_ir.Dfg.kind);
      Alcotest.(check int) "rollback pc is the load's pc"
        load.Gb_ir.Dfg.guest_pc chk.Gb_ir.Dfg.exit_pc)
    chks

let cse_deduplicates () =
  let open Gb_riscv.Insn in
  let trace =
    gtrace
      [
        step 0x1000 (Op (ADD, Gb_riscv.Reg.t0, Gb_riscv.Reg.s0, Gb_riscv.Reg.s1));
        step 0x1004 (Op (ADD, Gb_riscv.Reg.t1, Gb_riscv.Reg.s0, Gb_riscv.Reg.s1));
        step 0x1008 (Op (MUL, Gb_riscv.Reg.t2, Gb_riscv.Reg.t0, Gb_riscv.Reg.t1));
      ]
      0x100c
  in
  let with_cse = build trace in
  let no_cse =
    build
      ~opt:{ Gb_ir.Opt_config.aggressive with Gb_ir.Opt_config.cse = false }
      trace
  in
  (* with value numbering the two identical adds share a node: add, mul
     and the trace exit *)
  Alcotest.(check int) "cse: 3 nodes" 3 (Gb_ir.Dfg.n_nodes with_cse);
  Alcotest.(check int) "no cse: 4 nodes" 4 (Gb_ir.Dfg.n_nodes no_cse)

let constant_folding () =
  let open Gb_riscv.Insn in
  (* li t0, 0x2000 via lui+addiw, then t1 = t0 + 8: all constant *)
  let trace =
    gtrace
      [
        step 0x1000 (Lui (Gb_riscv.Reg.t0, 2));
        step 0x1004 (Op_imm (ADDIW, Gb_riscv.Reg.t0, Gb_riscv.Reg.t0, 0));
        step 0x1008 (Op_imm (ADDI, Gb_riscv.Reg.t1, Gb_riscv.Reg.t0, 8));
      ]
      0x100c
  in
  let g = build trace in
  (* everything folds: only the exit node remains *)
  Alcotest.(check int) "only the exit node" 1 (Gb_ir.Dfg.n_nodes g);
  let exit_node = Gb_ir.Dfg.node g 0 in
  let commits = exit_node.Gb_ir.Dfg.commit_map in
  Alcotest.(check bool) "t1 committed as an immediate" true
    (List.exists
       (fun (r, value) ->
         r = Gb_riscv.Reg.t1 && value = Gb_ir.Dfg.Imm 0x2008L)
       commits)

(* Random guest trace generator (structurally valid: branches carry exit
   conditions, no ecall/jalr). *)
let arb_gtrace =
  let open QCheck.Gen in
  let reg = int_range 1 15 in
  let gen_step pc =
    let open Gb_riscv.Insn in
    frequency
      [
        (4, map3 (fun rd rs1 rs2 -> Op (ADD, rd, rs1, rs2)) reg reg reg);
        (2, map3 (fun rd rs1 rs2 -> Op (MUL, rd, rs1, rs2)) reg reg reg);
        (2, map2 (fun rd rs1 -> Load (D, false, rd, rs1, 0)) reg reg);
        (2, map2 (fun rs2 rs1 -> Store (D, rs2, rs1, 0)) reg reg);
        (1, return (Rdcycle 5));
        (1, return Fence);
        ( 2,
          map2
            (fun rs1 rs2 -> Branch (BEQ, rs1, rs2, 64))
            reg reg );
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
  let* steps =
    flatten_l (List.init n (fun i -> gen_step (0x1000 + (4 * i))))
  in
  return (gtrace steps (0x1000 + (4 * n)))

let mitigation_fixpoint_prop =
  QCheck.Test.make ~count:300 ~name:"mitigation kills all patterns"
    (QCheck.make arb_gtrace)
    (fun trace ->
      List.for_all
        (fun mode ->
          let opt = Gb_core.Mitigation.opt_of_mode mode in
          let g = Gb_ir.Build.build ~opt ~lat trace in
          let _report = Gb_core.Mitigation.apply mode ~lat g in
          match mode with
          | Gb_core.Mitigation.Unsafe -> true
          | Gb_core.Mitigation.Fine_grained | Gb_core.Mitigation.Fence_on_detect
          | Gb_core.Mitigation.Min_cut | Gb_core.Mitigation.No_speculation ->
            count_patterns g = 0)
        Gb_core.Mitigation.all_modes)

let no_spec_never_speculative_prop =
  QCheck.Test.make ~count:200 ~name:"no-speculation has no speculative loads"
    (QCheck.make arb_gtrace)
    (fun trace ->
      let g = Gb_ir.Build.build ~opt:Gb_ir.Opt_config.no_speculation ~lat trace in
      let ok = ref true in
      Gb_ir.Dfg.iter_nodes g (fun n ->
          if Gb_ir.Dfg.is_speculative n then ok := false);
      !ok)

let mcb_tag_budget_prop =
  QCheck.Test.make ~count:200 ~name:"MCB tag budget respected"
    (QCheck.make arb_gtrace)
    (fun trace ->
      let opt = { Gb_ir.Opt_config.aggressive with Gb_ir.Opt_config.mcb_tags = 2 } in
      let g = Gb_ir.Build.build ~opt ~lat trace in
      let tags = ref [] in
      Gb_ir.Dfg.iter_nodes g (fun n ->
          match Gb_ir.Dfg.spec_of n with
          | Some { Gb_ir.Dfg.tag = Some t; _ } -> tags := t :: !tags
          | Some _ | None -> ());
      List.length !tags <= 2
      && List.sort_uniq compare !tags = List.sort compare !tags)

let dot_export () =
  let g = build v4_trace in
  let { Gb_core.Poison.poisoned; patterns } = Gb_core.Poison.analyze g in
  let dot = Gb_ir.Dot.to_string ~poisoned ~patterns g in
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "valid digraph" true
    (contains "digraph dfg {" && contains "}");
  Alcotest.(check bool) "speculative load rendered" true (contains "ld.spec");
  Alcotest.(check bool) "pattern highlighted" true (contains "fillcolor=\"#ff9999\"");
  Alcotest.(check bool) "memory edges dashed" true (contains "style=dashed")

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ir-core"
    [
      ( "poison",
        [
          Alcotest.test_case "v1 pattern detected" `Quick v1_pattern_detected;
          Alcotest.test_case "no pattern without branch spec" `Quick
            v1_no_pattern_without_branch_spec;
          Alcotest.test_case "v4 pattern detected" `Quick v4_pattern_detected;
          Alcotest.test_case "clean address is no pattern" `Quick
            v4_clean_address_is_no_pattern;
        ] );
      ( "mitigation",
        [
          Alcotest.test_case "fine-grained fixpoint" `Quick fine_grained_fixpoint;
          Alcotest.test_case "fence mode inserts fences" `Quick
            fence_mode_inserts_fences;
          Alcotest.test_case "unsafe is identity" `Quick unsafe_mode_is_identity;
          Alcotest.test_case "mode names parse" `Quick mode_names_parse;
          qt mitigation_fixpoint_prop;
          qt no_spec_never_speculative_prop;
        ] );
      ( "ir-structure",
        [
          Alcotest.test_case "commit maps minimal" `Quick
            commit_maps_only_changed_regs;
          Alcotest.test_case "chk guards speculative load" `Quick
            chk_guards_speculative_load;
          Alcotest.test_case "cse deduplicates" `Quick cse_deduplicates;
          Alcotest.test_case "constant folding" `Quick constant_folding;
          Alcotest.test_case "dot export" `Quick dot_export;
          qt mcb_tag_budget_prop;
        ] );
    ]
