(* Tests for the bounded code cache: capacity/LRU accounting, the
   chaining invariant (no link may survive the eviction, invalidation or
   replacement of either endpoint), mode compatibility — then end to end,
   that eviction churn and chaining change nothing architectural and the
   leakage audit still sees every speculative access. *)

open Gb_dbt

let h n = Gb_vliw.Vinsn.guest_regs + n

(* A trace of [bundles] VLIW bundles with one exit stub per element of
   [targets]; the stub body is irrelevant to the cache. *)
let mk_trace ?(bundles = 4) ~pc targets =
  let stub target_pc =
    Gb_vliw.Vinsn.make_stub
      ~commits:[ (Gb_riscv.Reg.a0, Gb_vliw.Vinsn.R (h 0)) ]
      ~target_pc ()
  in
  {
    Gb_vliw.Vinsn.entry_pc = pc;
    bundles =
      Array.make bundles [| Gb_vliw.Vinsn.Exit { stub = 0 }; Gb_vliw.Vinsn.Nop |];
    stubs = Array.of_list (List.map stub targets);
    n_regs = 64;
    guest_insns = bundles;
    meta = Gb_vliw.Vinsn.empty_meta;
  }

let cache ?(capacity = 16) ?(chain = true) () =
  Code_cache.create { Code_cache.capacity; chain }

let insert ?(tier = Code_cache.Trace) ?(mode = Code_cache.Nonspec)
    ?bundles cc ~pc targets =
  Code_cache.insert cc ~pc ~tier ~mode (mk_trace ?bundles ~pc targets)

(* --- capacity and LRU --- *)

let capacity_respected () =
  let cc = cache ~capacity:10 () in
  let _ = insert cc ~pc:0x100 [ 0x200 ] in
  let _ = insert cc ~pc:0x200 [ 0x300 ] in
  Alcotest.(check int) "two fit" 8 (Code_cache.used_bundles cc);
  let _ = insert cc ~pc:0x300 [ 0x100 ] in
  Alcotest.(check bool) "budget kept" true (Code_cache.used_bundles cc <= 10);
  Alcotest.(check int) "one eviction" 1 (Code_cache.stats cc).Code_cache.evictions

let lru_victim () =
  let cc = cache ~capacity:10 () in
  let _ = insert cc ~pc:0x100 [] in
  let _ = insert cc ~pc:0x200 [] in
  (* touch 0x100 so 0x200 is the least recently used *)
  ignore (Code_cache.find cc 0x100);
  let _ = insert cc ~pc:0x300 [] in
  Alcotest.(check bool) "recent survives" true (Code_cache.peek cc 0x100 <> None);
  Alcotest.(check bool) "lru evicted" true (Code_cache.peek cc 0x200 = None)

let replacement_is_not_eviction () =
  let cc = cache ~capacity:16 () in
  let _ = insert cc ~pc:0x100 ~bundles:4 [] in
  let _ = insert cc ~pc:0x100 ~bundles:6 [] in
  Alcotest.(check int) "no eviction counted" 0
    (Code_cache.stats cc).Code_cache.evictions;
  Alcotest.(check int) "usage is the replacement's" 6
    (Code_cache.used_bundles cc)

let on_evict_fires_with_tier () =
  let cc = cache ~capacity:8 () in
  let seen = ref [] in
  Code_cache.set_on_evict cc (fun ~pc tier -> seen := (pc, tier) :: !seen);
  let _ = insert cc ~pc:0x100 ~tier:Code_cache.Block [] in
  let _ = insert cc ~pc:0x200 [] in
  (* replacement must not fire the hook... *)
  let _ = insert cc ~pc:0x200 [] in
  Alcotest.(check int) "replacement is silent" 0 (List.length !seen);
  (* ...capacity pressure must, reporting the victim's tier *)
  let _ = insert cc ~pc:0x300 [] in
  Alcotest.(check (list (pair int bool))) "only the capacity eviction"
    [ (0x100, true) ]
    (List.map (fun (pc, t) -> (pc, t = Code_cache.Block)) !seen)

(* --- chaining invariant --- *)

let link_and_break_on_invalidate () =
  let cc = cache () in
  let a = insert cc ~pc:0x100 [ 0x200 ] in
  let b = insert cc ~pc:0x200 [ 0x100 ] in
  Alcotest.(check bool) "a->b links" true (Code_cache.link cc ~src:a ~stub:0 ~dst:b);
  Alcotest.(check bool) "b->a links" true (Code_cache.link cc ~src:b ~stub:0 ~dst:a);
  Alcotest.(check bool) "well linked" true (Code_cache.well_linked cc);
  Code_cache.invalidate cc 0x200;
  Alcotest.(check bool) "a's stub unlinked" true
    (a.Code_cache.e_trace.Gb_vliw.Vinsn.stubs.(0).Gb_vliw.Vinsn.chain = None);
  Alcotest.(check bool) "still well linked" true (Code_cache.well_linked cc);
  Alcotest.(check int) "both directions broken" 2
    (Code_cache.stats cc).Code_cache.chain_breaks

let eviction_unlinks () =
  let cc = cache ~capacity:8 () in
  let a = insert cc ~pc:0x100 [ 0x200 ] in
  let b = insert cc ~pc:0x200 [ 0x100 ] in
  ignore (Code_cache.link cc ~src:a ~stub:0 ~dst:b);
  ignore (Code_cache.link cc ~src:b ~stub:0 ~dst:a);
  ignore (Code_cache.find cc 0x200);
  (* evicts 0x100, the LRU entry *)
  let _ = insert cc ~pc:0x300 [] in
  Alcotest.(check bool) "victim gone" true (Code_cache.peek cc 0x100 = None);
  Alcotest.(check bool) "survivor's link severed" true
    (b.Code_cache.e_trace.Gb_vliw.Vinsn.stubs.(0).Gb_vliw.Vinsn.chain = None);
  Alcotest.(check bool) "well linked" true (Code_cache.well_linked cc)

let replacement_unlinks_predecessors () =
  let cc = cache () in
  let a = insert cc ~pc:0x100 [ 0x200 ] in
  let b = insert cc ~pc:0x200 [] in
  ignore (Code_cache.link cc ~src:a ~stub:0 ~dst:b);
  (* tier promotion of the target: the old object is dropped, so the
     link into it must not survive *)
  let _ = insert cc ~pc:0x200 [] in
  Alcotest.(check bool) "predecessor unlinked" true
    (a.Code_cache.e_trace.Gb_vliw.Vinsn.stubs.(0).Gb_vliw.Vinsn.chain = None);
  Alcotest.(check bool) "well linked" true (Code_cache.well_linked cc)

let link_guards () =
  let cc = cache () in
  let a = insert cc ~pc:0x100 [ 0x200 ] in
  let b = insert cc ~pc:0x200 [] in
  let c = insert cc ~pc:0x300 [] in
  Alcotest.(check bool) "stub target must equal dst pc" false
    (Code_cache.link cc ~src:a ~stub:0 ~dst:c);
  Alcotest.(check bool) "stub index bounds" false
    (Code_cache.link cc ~src:a ~stub:5 ~dst:b);
  let off = cache ~chain:false () in
  let a' = insert off ~pc:0x100 [ 0x200 ] in
  let b' = insert off ~pc:0x200 [] in
  Alcotest.(check bool) "chaining disabled" false
    (Code_cache.link off ~src:a' ~stub:0 ~dst:b')

(* A caller holding entries it looked up before a removal must not be
   able to chain into or out of the dead code: no later removal could
   reach that link to break it. *)
let link_refuses_dead_endpoints () =
  let cc = cache () in
  let a = insert cc ~pc:0x100 [ 0x200 ] in
  let b = insert cc ~pc:0x200 [ 0x100 ] in
  Code_cache.invalidate cc 0x200;
  Alcotest.(check bool) "invalidated dst refused" false
    (Code_cache.link cc ~src:a ~stub:0 ~dst:b);
  let b' = insert cc ~pc:0x200 [ 0x100 ] in
  let a' = insert cc ~pc:0x100 [ 0x200 ] in
  Alcotest.(check bool) "replaced src refused" false
    (Code_cache.link cc ~src:a ~stub:0 ~dst:b');
  Alcotest.(check bool) "dead stub left unlinked" true
    (a.Code_cache.e_trace.Gb_vliw.Vinsn.stubs.(0).Gb_vliw.Vinsn.chain = None);
  Alcotest.(check bool) "live endpoints link" true
    (Code_cache.link cc ~src:a' ~stub:0 ~dst:b');
  Alcotest.(check bool) "well linked" true (Code_cache.well_linked cc)

let mode_compatibility () =
  let fine = Code_cache.Mitigated Gb_core.Mitigation.Fine_grained in
  let fence = Code_cache.Mitigated Gb_core.Mitigation.Fence_on_detect in
  let cc = cache () in
  let src m = insert cc ~mode:m ~pc:0x100 [ 0x200 ] in
  let dst m = insert cc ~mode:m ~pc:0x200 [] in
  let ok s d = Code_cache.link cc ~src:(src s) ~stub:0 ~dst:(dst d) in
  Alcotest.(check bool) "equal modes chain" true (ok fine fine);
  Alcotest.(check bool) "mixed modes do not" false (ok fine fence);
  Alcotest.(check bool) "nonspec target always safe" true
    (ok fine Code_cache.Nonspec);
  Alcotest.(check bool) "nonspec source is mode-neutral" true
    (ok Code_cache.Nonspec fence)

(* --- the invariant under arbitrary operation sequences --- *)

let pcs = [| 0x100; 0x200; 0x300; 0x400; 0x500; 0x600 |]

(* every trace's stubs target the two next pcs, so random linking has
   plenty of valid edges to create *)
let targets_of i =
  [ pcs.((i + 1) mod Array.length pcs); pcs.((i + 2) mod Array.length pcs) ]

type op = Insert of int | Find of int | Invalidate of int | Link of int * int

let arb_ops =
  let open QCheck.Gen in
  let n = Array.length pcs in
  let op =
    frequency
      [
        (4, map (fun i -> Insert i) (int_bound (n - 1)));
        (2, map (fun i -> Find i) (int_bound (n - 1)));
        (1, map (fun i -> Invalidate i) (int_bound (n - 1)));
        (4, map2 (fun i s -> Link (i, s)) (int_bound (n - 1)) (int_bound 1));
      ]
  in
  QCheck.make
    ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
    (list_size (int_range 1 60) op)

let qcheck_well_linked =
  QCheck.Test.make ~count:500
    ~name:"chain links never outlive either endpoint"
    arb_ops
    (fun ops ->
      (* capacity of 12 bundles = 3 live entries: inserts evict constantly *)
      let cc = cache ~capacity:12 () in
      List.iter
        (fun op ->
          (match op with
          | Insert i -> ignore (insert cc ~pc:pcs.(i) (targets_of i))
          | Find i -> ignore (Code_cache.find cc pcs.(i))
          | Invalidate i -> Code_cache.invalidate cc pcs.(i)
          | Link (i, s) -> (
            match
              ( Code_cache.peek cc pcs.(i),
                Code_cache.peek cc (List.nth (targets_of i) s) )
            with
            | Some src, Some dst ->
              ignore (Code_cache.link cc ~src ~stub:s ~dst)
            | _ -> ()));
          if not (Code_cache.well_linked cc) then
            QCheck.Test.fail_report "dangling or stale chain link";
          if Code_cache.used_bundles cc > 12 then
            QCheck.Test.fail_report "capacity budget exceeded")
        ops;
      true)

(* --- end to end --- *)

let tiny = 48 (* bundles: a handful of small traces, constant churn *)

let capped_config ?(chain = true) mode capacity =
  let config = Gb_system.Processor.config_for mode in
  let engine = config.Gb_system.Processor.engine in
  {
    config with
    Gb_system.Processor.engine =
      { engine with Gb_dbt.Engine.cache = { Code_cache.capacity; chain } };
  }

(* Two hot inner loops inside a hot outer loop: three regions that keep
   re-entering, so a cache too small for all of them evicts on every
   outer iteration instead of merely replacing one pc. *)
let loop_program n =
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  Asm.assemble
    [
      Asm.Li (Reg.s1, Int64.of_int n);
      Asm.Li (Reg.s3, 0L);
      Asm.Li (Reg.t0, 0L);
      Asm.Label "outer";
      Asm.Li (Reg.s2, 0L);
      Asm.Label "a";
      Asm.Insn (Op (MUL, Reg.t1, Reg.s2, Reg.s2));
      Asm.Insn (Op (ADD, Reg.t0, Reg.t0, Reg.t1));
      Asm.Insn (Op_imm (ADDI, Reg.s2, Reg.s2, 1));
      Asm.Branch_to (BLT, Reg.s2, Reg.s1, "a");
      Asm.Li (Reg.s2, 0L);
      Asm.Label "b";
      Asm.Insn (Op (ADD, Reg.t0, Reg.t0, Reg.s2));
      Asm.Insn (Op_imm (XORI, Reg.t0, Reg.t0, 21));
      Asm.Insn (Op_imm (ADDI, Reg.s2, Reg.s2, 1));
      Asm.Branch_to (BLT, Reg.s2, Reg.s1, "b");
      Asm.Insn (Op_imm (ADDI, Reg.s3, Reg.s3, 1));
      Asm.Branch_to (BLT, Reg.s3, Reg.s1, "outer");
      Asm.Insn (Op_imm (ANDI, Reg.a0, Reg.t0, 255));
      Asm.Li (Reg.a7, 93L);
      Asm.Insn Ecall;
    ]

let eviction_churn_is_architecturally_invisible () =
  let program = loop_program 400 in
  let run config =
    Gb_system.Processor.run_program ~config program
  in
  let mode = Gb_core.Mitigation.Unsafe in
  (* 8 bundles cannot hold even one block next to the loop trace, so
     every promotion and re-entry evicts something *)
  let capacity = 8 in
  let reference = run (Gb_system.Processor.config_for mode) in
  let churned = run (capped_config mode capacity) in
  let unchained = run (capped_config ~chain:false mode capacity) in
  Alcotest.(check bool) "reference never evicts" true
    (reference.Gb_system.Processor.cc_evictions = 0);
  Alcotest.(check bool) "tiny cache actually churns" true
    (churned.Gb_system.Processor.cc_evictions > 0);
  Alcotest.(check int) "same exit code (chained)"
    reference.Gb_system.Processor.exit_code
    churned.Gb_system.Processor.exit_code;
  Alcotest.(check int) "same exit code (unchained)"
    reference.Gb_system.Processor.exit_code
    unchained.Gb_system.Processor.exit_code;
  (* chaining is host-side only: under the same (tiny) capacity, on/off
     must agree on the simulated cycle count, not just the result *)
  Alcotest.(check int64) "chaining costs no simulated cycles"
    unchained.Gb_system.Processor.cycles churned.Gb_system.Processor.cycles;
  Alcotest.(check bool) "and actually chained" true
    (Int64.compare churned.Gb_system.Processor.chain_follows 0L > 0)

let audit_fn_zero_under_churn () =
  (* the acceptance gate: fine-grained mitigation with chaining on and a
     cache small enough to evict constantly still shows zero audit false
     negatives and recovers no secret *)
  let secret = "GB!" in
  List.iter
    (fun (name, program) ->
      let o =
        Gb_attack.Runner.run
          ~config:(capped_config Gb_core.Mitigation.Fine_grained tiny)
          ~audit:true ~mode:Gb_core.Mitigation.Fine_grained ~secret program
      in
      let r = o.Gb_attack.Runner.result in
      Alcotest.(check bool) (name ^ ": cache churned") true
        (r.Gb_system.Processor.cc_evictions > 0);
      (match r.Gb_system.Processor.audit with
      | Some s ->
        Alcotest.(check int) (name ^ ": zero false negatives") 0
          s.Gb_cache.Audit.false_negatives
      | None -> Alcotest.fail (name ^ ": audit summary missing"));
      Alcotest.(check int) (name ^ ": nothing recovered") 0
        o.Gb_attack.Runner.correct_bytes)
    [
      ("v1", Gb_attack.Spectre_v1.program ~secret ());
      ("v4", Gb_attack.Spectre_v4.program ~secret ());
    ]

let () =
  Alcotest.run "code_cache"
    [
      ( "capacity",
        [
          Alcotest.test_case "budget respected, LRU evicts" `Quick
            capacity_respected;
          Alcotest.test_case "LRU picks the stalest entry" `Quick lru_victim;
          Alcotest.test_case "replacement is not an eviction" `Quick
            replacement_is_not_eviction;
          Alcotest.test_case "on_evict: capacity only, with tier" `Quick
            on_evict_fires_with_tier;
        ] );
      ( "chaining",
        [
          Alcotest.test_case "invalidate severs both directions" `Quick
            link_and_break_on_invalidate;
          Alcotest.test_case "eviction unlinks the survivor" `Quick
            eviction_unlinks;
          Alcotest.test_case "replacement unlinks predecessors" `Quick
            replacement_unlinks_predecessors;
          Alcotest.test_case "link guards" `Quick link_guards;
          Alcotest.test_case "link refuses dead endpoints" `Quick
            link_refuses_dead_endpoints;
          Alcotest.test_case "mitigation-mode compatibility" `Quick
            mode_compatibility;
          QCheck_alcotest.to_alcotest qcheck_well_linked;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "eviction churn is architecturally invisible"
            `Quick eviction_churn_is_architecturally_invisible;
          Alcotest.test_case "audit FN=0 under churn (fine-grained)" `Quick
            audit_fn_zero_under_churn;
        ] );
    ]
