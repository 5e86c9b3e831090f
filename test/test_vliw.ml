(* Tests for the VLIW core: bundle execution, exit stubs, MCB rollback,
   stall-on-miss timing — on hand-written traces. *)

open Gb_vliw.Vinsn

let h n = Gb_vliw.Vinsn.guest_regs + n (* hidden register n *)

let reg (m : Gb_vliw.Machine.t) r = Gb_riscv.Regfile.get m.regs r

let make_machine () =
  let mem = Gb_riscv.Mem.create ~size:(1 lsl 16) in
  let hier = Gb_cache.Hierarchy.create Gb_cache.Hierarchy.default_config in
  let clock = ref 0L in
  (Gb_vliw.Machine.create ~mem ~hier ~clock (), clock)

let pad width ops = Array.init width (fun i -> if i < List.length ops then List.nth ops i else Nop)

(* A hand-built trace, decoded as the engine decodes every translation *)
let trace ?(stubs = []) ?(n_regs = 64) ?(width = 4) bundles =
  let t =
    {
      entry_pc = 0x1000;
      bundles = Array.of_list (List.map (pad width) bundles);
      stubs = Array.of_list stubs;
      n_regs;
      guest_insns = 0;
      meta = empty_meta;
      decoded = Undecoded;
    }
  in
  Gb_vliw.Pipeline.decode t;
  t

let add = Gb_riscv.Insn.ADD

let straight_line () =
  (* h0 = 5; h1 = h0 + 7; exit committing a0 <- h1 *)
  let t =
    trace
      ~stubs:[ make_stub ~commits:[ (Gb_riscv.Reg.a0, R (h 1)) ] ~target_pc:0x2000 () ]
      [
        [ Alu { op = add; dst = h 0; a = I 5L; b = I 0L } ];
        [ Alu { op = add; dst = h 1; a = R (h 0); b = I 7L } ];
        [ Exit { stub = 0 } ];
      ]
  in
  let m, _clock = make_machine () in
  let info = Gb_vliw.Pipeline.run m t in
  Alcotest.(check int) "next pc" 0x2000 info.Gb_vliw.Pipeline.next_pc;
  Alcotest.(check int64) "a0 committed" 12L (reg m Gb_riscv.Reg.a0);
  Alcotest.(check bool) "fallthrough" true
    (info.Gb_vliw.Pipeline.kind = Gb_vliw.Pipeline.Fallthrough)

let parallel_semantics () =
  (* h0=1 first; then in ONE bundle: h1 <- h0 + 1 and h0 <- 100.
     h1 must read the pre-bundle h0. *)
  let t =
    trace
      ~stubs:[ make_stub ~commits:[ (Gb_riscv.Reg.a0, R (h 1)) ] ~target_pc:0 () ]
      [
        [ Alu { op = add; dst = h 0; a = I 1L; b = I 0L } ];
        [
          Alu { op = add; dst = h 1; a = R (h 0); b = I 1L };
          Alu { op = add; dst = h 0; a = I 100L; b = I 0L };
        ];
        [ Exit { stub = 0 } ];
      ]
  in
  let m, _ = make_machine () in
  ignore (Gb_vliw.Pipeline.run m t);
  Alcotest.(check int64) "parallel read" 2L (reg m Gb_riscv.Reg.a0)

let side_exit_commits () =
  (* Branch taken in bundle 1: only the side-exit stub's commits apply. *)
  let t =
    trace
      ~stubs:
        [
          make_stub ~commits:[ (Gb_riscv.Reg.a0, I 1L) ] ~target_pc:0xAAAA ();
          make_stub ~commits:[ (Gb_riscv.Reg.a0, I 2L) ] ~target_pc:0xBBBB ();
        ]
      [
        [ Alu { op = add; dst = h 0; a = I 3L; b = I 4L } ];
        [ Branch { cond = Gb_riscv.Insn.BEQ; a = R (h 0); b = I 7L; stub = 0 } ];
        [ Exit { stub = 1 } ];
      ]
  in
  let m, _ = make_machine () in
  let info = Gb_vliw.Pipeline.run m t in
  Alcotest.(check int) "side exit target" 0xAAAA info.Gb_vliw.Pipeline.next_pc;
  Alcotest.(check int64) "stub 0 committed" 1L (reg m Gb_riscv.Reg.a0);
  Alcotest.(check bool) "kind" true
    (info.Gb_vliw.Pipeline.kind = Gb_vliw.Pipeline.Side_exit)

let mcb_rollback () =
  (* Speculative load from address 128 hoisted above a store to 128:
     the chk must roll back. With a store to 256 instead, it must not. *)
  let build store_addr =
    trace
      ~stubs:
        [
          make_stub ~commits:[] ~target_pc:0xD00D () (* rollback stub *);
          make_stub ~commits:[ (Gb_riscv.Reg.a0, R (h 0)) ] ~target_pc:0xFFFF ();
        ]
      [
        [
          Load
            { w = Gb_riscv.Insn.D; unsigned = false; dst = h 0; base = I 128L;
              off = 0; spec = Some 3; id = 0; pc = 0; hoisted = false };
        ];
        [
          Store
            { w = Gb_riscv.Insn.D; src = I 42L; base = I (Int64.of_int store_addr);
              off = 0; id = 0; pc = 0 };
        ];
        [ Chk { tag = 3; stub = 0 } ];
        [ Exit { stub = 1 } ];
      ]
  in
  let m, _ = make_machine () in
  let info = Gb_vliw.Pipeline.run m (build 128) in
  Alcotest.(check int) "rollback target" 0xD00D info.Gb_vliw.Pipeline.next_pc;
  Alcotest.(check bool) "rollback kind" true
    (info.Gb_vliw.Pipeline.kind = Gb_vliw.Pipeline.Rollback);
  Alcotest.(check int64) "a0 not committed" 0L (reg m Gb_riscv.Reg.a0);
  let m2, _ = make_machine () in
  let info2 = Gb_vliw.Pipeline.run m2 (build 256) in
  Alcotest.(check int) "no rollback" 0xFFFF info2.Gb_vliw.Pipeline.next_pc;
  (* the load committed the (pre-store) memory value 0 *)
  Alcotest.(check int64) "a0 committed" 0L (reg m2 Gb_riscv.Reg.a0)

let mcb_partial_overlap () =
  (* A 1-byte store inside the 8-byte speculatively loaded range conflicts. *)
  let t =
    trace
      ~stubs:
        [
          make_stub ~commits:[] ~target_pc:1 ();
          make_stub ~commits:[] ~target_pc:2 ();
        ]
      [
        [
          Load
            { w = Gb_riscv.Insn.D; unsigned = false; dst = h 0; base = I 512L;
              off = 0; spec = Some 0; id = 0; pc = 0; hoisted = false };
        ];
        [ Store { w = Gb_riscv.Insn.B; src = I 1L; base = I 519L; off = 0; id = 0; pc = 0 } ];
        [ Chk { tag = 0; stub = 0 } ];
        [ Exit { stub = 1 } ];
      ]
  in
  let m, _ = make_machine () in
  let info = Gb_vliw.Pipeline.run m t in
  Alcotest.(check int) "overlap detected" 1 info.Gb_vliw.Pipeline.next_pc

let speculative_fault_deferred () =
  (* A speculative load far out of memory returns 0 and does not raise. *)
  let t =
    trace
      ~stubs:[ make_stub ~commits:[ (Gb_riscv.Reg.a0, R (h 0)) ] ~target_pc:0 () ]
      [
        [
          Load
            { w = Gb_riscv.Insn.D; unsigned = false; dst = h 0;
              base = I 0x7FFFFFFFL; off = 0; spec = None; id = 0; pc = 0; hoisted = false };
        ];
        [ Exit { stub = 0 } ];
      ]
  in
  let m, _ = make_machine () in
  ignore (Gb_vliw.Pipeline.run m t);
  Alcotest.(check int64) "deferred fault value" 0L
    (reg m Gb_riscv.Reg.a0)

let miss_stalls_pipeline () =
  (* Same trace run twice: first run misses (cold cache), second hits. *)
  let t =
    trace
      ~stubs:[ make_stub ~commits:[] ~target_pc:0 () ]
      [
        [
          Load
            { w = Gb_riscv.Insn.D; unsigned = false; dst = h 0; base = I 4096L;
              off = 0; spec = None; id = 0; pc = 0; hoisted = false };
        ];
        [ Exit { stub = 0 } ];
      ]
  in
  let m, clock = make_machine () in
  ignore (Gb_vliw.Pipeline.run m t);
  let cold = !clock in
  ignore (Gb_vliw.Pipeline.run m t);
  let warm = Int64.sub !clock cold in
  Alcotest.(check bool) "cold run slower" true (Int64.compare cold warm > 0);
  let miss_penalty =
    (Gb_cache.Hierarchy.config m.Gb_vliw.Machine.hier).Gb_cache.Hierarchy.miss_penalty
  in
  Alcotest.(check int64) "difference is the miss penalty"
    (Int64.of_int miss_penalty) (Int64.sub cold warm)

let cflush_forces_miss () =
  let t_load =
    trace
      ~stubs:[ make_stub ~commits:[] ~target_pc:0 () ]
      [
        [
          Load
            { w = Gb_riscv.Insn.D; unsigned = false; dst = h 0; base = I 4096L;
              off = 0; spec = None; id = 0; pc = 0; hoisted = false };
        ];
        [ Exit { stub = 0 } ];
      ]
  in
  let m, clock = make_machine () in
  ignore (Gb_vliw.Pipeline.run m t_load);
  ignore (Gb_vliw.Pipeline.run m t_load);
  let before = !clock in
  (* flush the line, reload: should pay the miss again *)
  Gb_cache.Hierarchy.flush_line m.Gb_vliw.Machine.hier 4096;
  ignore (Gb_vliw.Pipeline.run m t_load);
  let after = Int64.sub !clock before in
  Alcotest.(check bool) "flush caused a miss" true
    (Int64.compare after 40L > 0)

let duplicate_write_rejected () =
  let t =
    trace
      ~stubs:[ make_stub ~commits:[] ~target_pc:0 () ]
      [
        [
          Alu { op = add; dst = h 0; a = I 1L; b = I 0L };
          Alu { op = add; dst = h 0; a = I 2L; b = I 0L };
        ];
        [ Exit { stub = 0 } ];
      ]
  in
  let m, _ = make_machine () in
  Alcotest.check_raises "duplicate write"
    (Gb_vliw.Pipeline.Machine_error "duplicate write to register 32")
    (fun () -> ignore (Gb_vliw.Pipeline.run m t))

let rdcycle_observes_stalls () =
  (* rdcycle; miss load; rdcycle -> delta > miss penalty;
     then warm: delta small. *)
  let t =
    trace
      ~stubs:
        [ make_stub ~commits:[ (Gb_riscv.Reg.a0, R (h 2)) ] ~target_pc:0 () ]
      [
        [ Rdcycle { dst = h 0 } ];
        [
          Load
            { w = Gb_riscv.Insn.D; unsigned = false; dst = h 3; base = I 8192L;
              off = 0; spec = None; id = 0; pc = 0; hoisted = false };
        ];
        [ Rdcycle { dst = h 1 } ];
        [ Alu { op = Gb_riscv.Insn.SUB; dst = h 2; a = R (h 1); b = R (h 0) } ];
        [ Exit { stub = 0 } ];
      ]
  in
  let m, _ = make_machine () in
  ignore (Gb_vliw.Pipeline.run m t);
  let cold_delta = reg m Gb_riscv.Reg.a0 in
  ignore (Gb_vliw.Pipeline.run m t);
  let warm_delta = reg m Gb_riscv.Reg.a0 in
  Alcotest.(check bool) "cold >= miss penalty" true
    (Int64.compare cold_delta 40L >= 0);
  Alcotest.(check bool) "warm < miss penalty" true
    (Int64.compare warm_delta 40L < 0)

let subword_memory_ops () =
  (* halfword/word loads and stores through the VLIW pipeline: truncation
     on store, zero- vs sign-extension on load *)
  let t =
    trace
      ~stubs:
        [
          make_stub
            ~commits:
              [
                (Gb_riscv.Reg.a0, R (h 1));
                (Gb_riscv.Reg.a1, R (h 2));
                (Gb_riscv.Reg.a2, R (h 3));
              ]
            ~target_pc:0 ();
        ]
      [
        (* store 0xFFFF8001 as a word at 256 *)
        [ Store { w = Gb_riscv.Insn.W; src = I 0xFFFF8001L; base = I 256L; off = 0; id = 0; pc = 0 } ];
        (* signed word load -> sign-extends *)
        [ Load { w = Gb_riscv.Insn.W; unsigned = false; dst = h 1; base = I 256L; off = 0; spec = None; id = 0; pc = 0; hoisted = false } ];
        (* unsigned halfword load of the low half -> 0x8001 *)
        [ Load { w = Gb_riscv.Insn.H; unsigned = true; dst = h 2; base = I 256L; off = 0; spec = None; id = 0; pc = 0; hoisted = false } ];
        (* signed halfword load -> sign-extends 0x8001 *)
        [ Load { w = Gb_riscv.Insn.H; unsigned = false; dst = h 3; base = I 256L; off = 0; spec = None; id = 0; pc = 0; hoisted = false } ];
        [ Exit { stub = 0 } ];
      ]
  in
  let m, _ = make_machine () in
  ignore (Gb_vliw.Pipeline.run m t);
  Alcotest.(check int64) "lw sign-extends" 0xFFFFFFFFFFFF8001L
    (reg m Gb_riscv.Reg.a0);
  Alcotest.(check int64) "lhu zero-extends" 0x8001L
    (reg m Gb_riscv.Reg.a1);
  Alcotest.(check int64) "lh sign-extends" 0xFFFFFFFFFFFF8001L
    (reg m Gb_riscv.Reg.a2)

let mcb_tag_reuse () =
  let mcb = Gb_vliw.Mcb.create ~entries:4 () in
  Gb_vliw.Mcb.alloc mcb ~tag:1 ~addr:100 ~size:8;
  Gb_vliw.Mcb.store_probe mcb ~pc:0 ~addr:104 ~size:1;
  Alcotest.(check bool) "conflict" true (Gb_vliw.Mcb.check mcb ~tag:1);
  (* entry consumed: checking again reports no conflict *)
  Alcotest.(check bool) "consumed" false (Gb_vliw.Mcb.check mcb ~tag:1);
  (* reallocation resets the conflict bit *)
  Gb_vliw.Mcb.alloc mcb ~tag:1 ~addr:100 ~size:8;
  Alcotest.(check bool) "reset" false (Gb_vliw.Mcb.check mcb ~tag:1)

let mcb_disabled () =
  (* entries = 0 is a valid configuration meaning "MCB disabled": all
     operations are safe no-ops and check never reports a conflict. *)
  let mcb = Gb_vliw.Mcb.create ~entries:0 () in
  Alcotest.(check bool) "disabled" false (Gb_vliw.Mcb.enabled mcb);
  Alcotest.(check int) "entries" 0 (Gb_vliw.Mcb.entries mcb);
  Gb_vliw.Mcb.alloc mcb ~tag:0 ~addr:100 ~size:8;
  Gb_vliw.Mcb.store_probe mcb ~pc:0 ~addr:100 ~size:8;
  Alcotest.(check bool) "no conflict" false (Gb_vliw.Mcb.check mcb ~tag:0);
  Gb_vliw.Mcb.clear mcb;
  Alcotest.(check int) "no conflicts recorded" 0
    (Gb_vliw.Mcb.stats mcb).conflicts;
  Alcotest.check_raises "negative entries rejected"
    (Invalid_argument "Mcb.create: negative entries") (fun () ->
      ignore (Gb_vliw.Mcb.create ~entries:(-1) ()))

let mcb_fault_hook () =
  let mcb = Gb_vliw.Mcb.create ~entries:4 () in
  (* spurious: force a conflict where none exists *)
  Gb_vliw.Mcb.alloc mcb ~tag:2 ~addr:100 ~size:8;
  Gb_vliw.Mcb.set_fault_hook mcb (Some (fun ~tag:_ ~conflict:_ -> true));
  Alcotest.(check bool) "spurious conflict" true
    (Gb_vliw.Mcb.check mcb ~tag:2);
  (* suppress: hide a real conflict *)
  Gb_vliw.Mcb.alloc mcb ~tag:2 ~addr:100 ~size:8;
  Gb_vliw.Mcb.store_probe mcb ~pc:0 ~addr:100 ~size:8;
  Gb_vliw.Mcb.set_fault_hook mcb (Some (fun ~tag:_ ~conflict:_ -> false));
  Alcotest.(check bool) "suppressed conflict" false
    (Gb_vliw.Mcb.check mcb ~tag:2);
  (* removing the hook restores normal behaviour *)
  Gb_vliw.Mcb.set_fault_hook mcb None;
  Gb_vliw.Mcb.alloc mcb ~tag:3 ~addr:200 ~size:8;
  Gb_vliw.Mcb.store_probe mcb ~pc:0 ~addr:200 ~size:8;
  Alcotest.(check bool) "hook removed" true (Gb_vliw.Mcb.check mcb ~tag:3)

(* Writes to x0 — ALU, move, load — are computed and discarded: slot 0
   of the shared register file stays zero, so R 0 reads 0 in the next
   bundle. *)
let x0_writes_discarded () =
  let t =
    trace
      ~stubs:[ make_stub ~commits:[ (Gb_riscv.Reg.a0, R (h 0)) ] ~target_pc:0 () ]
      [
        [ Alu { op = add; dst = 0; a = I 5L; b = I 1L };
          Mv { dst = 0; src = I 9L };
          Load { w = Gb_riscv.Insn.D; unsigned = false; dst = 0; base = I 0L;
                 off = 0; spec = None; id = 0; pc = 0; hoisted = false } ];
        [ Alu { op = add; dst = h 0; a = R 0; b = I 0L } ];
        [ Exit { stub = 0 } ];
      ]
  in
  let m, _ = make_machine () in
  Gb_riscv.Mem.store64 m.Gb_vliw.Machine.mem ~addr:0 42L;
  ignore (Gb_vliw.Pipeline.run m t);
  Alcotest.(check int64) "R 0 reads 0" 0L (reg m Gb_riscv.Reg.a0);
  Alcotest.(check int64) "slot 0 never written" 0L (reg m 0)

(* --- decoded execution = the interpreter it replaced ------------------ *)

(* Random bundles run through the decoded closures and through the
   bundle loop they replaced (test/pipeline_reference.ml), on two fresh
   machines, must leave the same machine behind after every bundle:
   registers, taint, memory, cache statistics and contents, MCB, clock,
   counters, rdcycle readings, the audit's and the attribution ledger's
   view, and the same exit or the same exception. A trace of the first
   [k] bundles without an Exit falls off its end right after bundle [k],
   so running every prefix compares the state bundle by bundle. *)

type observer = Plain | Audited | Attributed

let ref_mem_size = 4096

let init_regs =
  [ (1, 64L); (2, 3L); (5, 4088L); (6, Int64.of_int (max_int - 4));
    (7, -16L); (h 0, 128L); (h 1, 7L); (h 2, -1L); (h 3, 0x8000_0000L) ]

let observed_machine ?text observer =
  let mem = Gb_riscv.Mem.create ~size:ref_mem_size in
  for i = 0 to (ref_mem_size / 8) - 1 do
    Gb_riscv.Mem.store64 mem ~addr:(8 * i) (Int64.of_int (i * 7919))
  done;
  Option.iter (fun (lo, hi) -> Gb_riscv.Mem.set_text mem ~lo ~hi) text;
  let hier = Gb_cache.Hierarchy.create Gb_cache.Hierarchy.default_config in
  let obs =
    match observer with
    | Attributed -> Gb_obs.Sink.create ~attrib:true ()
    | Plain | Audited -> Gb_obs.Sink.noop
  in
  let audit =
    match observer with
    | Audited ->
      Some (Gb_cache.Audit.create ~real:(Gb_cache.Hierarchy.cache hier) ())
    | Plain | Attributed -> None
  in
  let m = Gb_vliw.Machine.create ~mem ~hier ~clock:(ref 0L) ~obs ?audit () in
  List.iter (fun (r, v) -> Gb_riscv.Regfile.set m.regs r v) init_regs;
  let readings = ref [] in
  m.rdcycle_hook <-
    Some
      (fun now ->
        readings := now :: !readings;
        Int64.add (Int64.mul now 3L) 1L);
  (m, readings)

(* Everything a bundle can change, rendered for comparison. *)
let machine_state ((m : Gb_vliw.Machine.t), readings) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  for r = 0 to Gb_riscv.Regfile.length m.regs - 1 do
    add "%Ld " (Gb_riscv.Regfile.get m.regs r)
  done;
  add "\ntaint";
  Array.iteri (fun r t -> if t then add " %d" r) m.taint;
  add "\nmem %s"
    (Digest.to_hex
       (Digest.bytes
          (Gb_riscv.Mem.read_bytes m.mem ~addr:0 ~len:ref_mem_size)));
  let cache = Gb_cache.Hierarchy.cache m.hier in
  let cs = Gb_cache.Cache.stats cache in
  add "\ncache %d %d %d %d %d lines" cs.reads cs.writes cs.read_misses
    cs.write_misses cs.flushes;
  List.iter (add " %d") (Gb_cache.Cache.lines cache);
  let st = m.stats in
  add "\nclock %Ld stats %d %d %d %d %d %d %d mcb %d" !(m.clock) st.bundles
    st.trace_runs st.side_exits st.rollbacks st.fallthroughs st.stall_cycles
    st.guest_insns (Gb_vliw.Mcb.stats m.mcb).conflicts;
  add "\nrdcycle";
  List.iter (add " %Ld") !readings;
  (match m.audit with
  | Some a ->
    add "\naudit %s dependent"
      (Gb_util.Json.to_string
         (Gb_cache.Audit.summary_to_json (Gb_cache.Audit.summary a)));
    List.iter (add " %d") (Gb_cache.Audit.dependent_pcs a)
  | None -> ());
  (match Gb_obs.Sink.attrib m.obs with
  | Some a -> add "\nattrib %s" (Gb_util.Json.to_string (Gb_obs.Attrib.to_json a))
  | None -> ());
  List.iter (fun (c, n) -> add "\n%s %d" c n) (Gb_obs.Sink.counters m.obs);
  Buffer.contents b

(* consumes the MCB entries: only at the end of a comparison *)
let mcb_entries (m : Gb_vliw.Machine.t) =
  List.init 10 (fun tag -> Gb_vliw.Mcb.check m.mcb ~tag)

let outcome run =
  match run () with
  | (info : Gb_vliw.Pipeline.exit_info) ->
    Printf.sprintf "exit next_pc=%d kind=%s" info.next_pc
      (match info.kind with
      | Gb_vliw.Pipeline.Fallthrough -> "fallthrough"
      | Side_exit -> "side-exit"
      | Rollback -> "rollback")
  | exception e -> "raised " ^ Printexc.to_string e

let ref_regs = [| 0; 1; 2; 5; 6; 7; h 0; h 1; h 2; h 3 |]

let ref_dsts = [| 0; 5; 6; h 0; h 1; h 2 |]

let ref_consts =
  [| 0L; 1L; -1L; 3L; 63L; 64L; 4088L; 4096L; Int64.max_int; Int64.min_int;
     0x1234_5678_9abcL; -4096L |]

let gen_ref_op =
  let open QCheck.Gen in
  let reg = oneofa ref_regs and dst = oneofa ref_dsts in
  let operand =
    frequency [ (3, map (fun r -> R r) reg); (2, map (fun v -> I v) (oneofa ref_consts)) ]
  in
  let width = oneofl Gb_riscv.Insn.[ B; H; W; D ] in
  let off = oneofl [ 0; 8; -8; 100; 4090; 5000 ] in
  let id = int_range 0 9 and pc = int_range 0 3 >|= fun k -> 0x100 + (4 * k) in
  let stub = int_range 0 1 in
  let all_alus =
    Gb_riscv.Insn.
      [ ADD; SUB; SLL; SLT; SLTU; XOR; SRL; SRA; OR; AND; ADDW; SUBW; SLLW;
        SRLW; SRAW; MUL; MULH; MULHSU; MULHU; DIV; DIVU; REM; REMU; MULW;
        DIVW; DIVUW; REMW; REMUW ]
  in
  let alu_ops = oneofl Gb_riscv.Insn.[ ADD; SLL; MUL ] and any_alu = oneofl all_alus in
  frequency
    [
      ( 5,
        map4
          (fun op dst a b -> Alu { op; dst; a; b })
          (frequency [ (1, alu_ops); (1, any_alu) ])
          dst operand operand );
      (1, map2 (fun dst src -> Mv { dst; src }) dst operand);
      (1, map (fun dst -> Rdcycle { dst }) dst);
      ( 3,
        let* w = width and* unsigned = bool and* dst = dst and* base = operand in
        let* off = off
        and* spec = oneofl [ None; Some 0; Some 1; Some 3; Some 9 ]
        and* id = id and* pc = pc and* hoisted = bool in
        return (Load { w; unsigned; dst; base; off; spec; id; pc; hoisted }) );
      ( 2,
        let* w = width and* src = operand and* base = operand in
        let* off = off and* id = id and* pc = pc in
        return (Store { w; src; base; off; id; pc }) );
      ( 1,
        let* cond = oneofl Gb_riscv.Insn.[ BEQ; BNE; BLT; BGE; BLTU; BGEU ] in
        let* a = operand and* b = operand and* stub = stub in
        return (Branch { cond; a; b; stub }) );
      ( 1,
        map2 (fun tag stub -> Chk { tag; stub }) (oneofl [ 0; 1; 3; 9 ]) stub );
      ( 1,
        let* base = operand and* off = off and* id = id and* pc = pc in
        return (Cflush { base; off; id; pc }) );
      (1, map (fun stub -> Exit { stub }) stub);
      (1, return Fence);
      (3, return Nop);
    ]

let gen_ref_case =
  let open QCheck.Gen in
  let* n = int_range 1 6 in
  let* bundles = list_size (return n) (list_size (int_range 0 4) gen_ref_op) in
  let* exit0 = oneofl [ 0; 3; 7; max_int ] and* exit1 = oneofl [ 2; 5; max_int ] in
  let* bad_commit = frequency [ (5, return false); (1, return true) ] in
  let* fenced = bool and* cut = bool in
  let stubs =
    [ make_stub ~exit_id:exit0
        ~commits:[ (Gb_riscv.Reg.a0, R (h 0)); (Gb_riscv.Reg.a1, I 5L) ]
        ~target_pc:0x2000 ();
      make_stub ~exit_id:exit1
        ~commits:(if bad_commit then [ (0, I 1L) ] else [ (Gb_riscv.Reg.a2, R 5) ])
        ~target_pc:0x3000 () ]
  in
  let meta =
    { empty_meta with
      fences_inserted = (if fenced then 1 else 0);
      cut_protects = (if cut then 1 else 0) }
  in
  return (bundles, stubs, meta)

let print_ref_case (bundles, _, _) =
  String.concat "\n"
    (List.map
       (fun b -> String.concat " ; " (List.map (Format.asprintf "%a" pp_op) b))
       bundles)

let decoded_equals_reference =
  QCheck.Test.make ~count:300 ~name:"decoded execution = reference interpreter"
    (QCheck.make ~print:print_ref_case gen_ref_case)
    (fun (bundles, stubs, meta) ->
      let n = List.length bundles in
      let prefixes =
        List.init n (fun k -> List.filteri (fun i _ -> i <= k) bundles)
        @ [ bundles @ [ [ Exit { stub = 0 } ] ] ]
      in
      List.for_all
        (fun observer ->
          List.for_all
            (fun prefix ->
              let t = { (trace ~stubs prefix) with meta } in
              let dut = observed_machine observer in
              let refm = observed_machine observer in
              let ref_view = Pipeline_reference.Machine.of_machine (fst refm) in
              (* two passes: the second runs on warm caches and a live MCB *)
              List.for_all
                (fun pass ->
                  let got = outcome (fun () -> Gb_vliw.Pipeline.run (fst dut) t) in
                  let want =
                    outcome (fun () -> Pipeline_reference.run ref_view t)
                  in
                  let sd = machine_state dut and sr = machine_state refm in
                  if got <> want || sd <> sr then
                    QCheck.Test.fail_reportf
                      "pass %d over %d bundles: decoded %s, reference %s%s" pass
                      (List.length prefix) got want
                      (if sd = sr then ""
                       else Printf.sprintf "\nstate:\n%s\nreference state:\n%s" sd sr)
                  else true)
                [ 1; 2 ]
              && mcb_entries (fst dut) = mcb_entries (fst refm))
            prefixes)
        [ Plain; Audited; Attributed ])

(* --- direct or staged ---------------------------------------------------- *)

(* [t] through the decoded closures and through the reference, on fresh
   machines under each observer, twice: every pass whose exit or
   exception, or machine state, differ, then the MCB entries if they
   do. *)
let against_reference ?text t =
  List.concat_map
    (fun observer ->
      let dut = observed_machine ?text observer in
      let refm = observed_machine ?text observer in
      let ref_view = Pipeline_reference.Machine.of_machine (fst refm) in
      let passes =
        List.filter_map
          (fun pass ->
            let got = outcome (fun () -> Gb_vliw.Pipeline.run (fst dut) t) in
            let want = outcome (fun () -> Pipeline_reference.run ref_view t) in
            if got = want && machine_state dut = machine_state refm then None
            else
              Some
                (Printf.sprintf "pass %d: decoded %s, reference %s" pass got
                   want))
          [ 1; 2 ]
      in
      if mcb_entries (fst dut) = mcb_entries (fst refm) then passes
      else passes @ [ "MCB entries" ])
    [ Plain; Audited; Attributed ]

(* One bundle, then an exit: it must decode staged or direct as the rule
   says, raise or not, and run as the reference does. [text] declares a
   text segment in the machines' memory. *)
let decode_rule ~staged ~raises ?text ?n_regs ?width bundle =
  let t =
    trace ?n_regs ?width
      ~stubs:
        [ make_stub
            ~commits:[ (Gb_riscv.Reg.a0, R (h 1)) ]
            ~target_pc:0x2000 ();
          make_stub ~commits:[] ~target_pc:0x3000 () ]
      [ bundle; [ Exit { stub = 0 } ] ]
  in
  let what =
    String.concat " ; " (List.map (Format.asprintf "%a" pp_op) bundle)
  in
  Alcotest.(check int) (what ^ ": staged bundles") (if staged then 1 else 0)
    (Gb_vliw.Pipeline.staged_bundles t);
  let m, _ = observed_machine ?text Plain in
  Alcotest.(check bool) (what ^ ": raises") raises
    (String.starts_with ~prefix:"raised"
       (outcome (fun () -> Gb_vliw.Pipeline.run m t)));
  Alcotest.(check (list string)) (what ^ ": = reference") []
    (against_reference ?text t)

let set dst v = Alu { op = add; dst; a = I v; b = I 0L }

let store_to base =
  Store
    { w = Gb_riscv.Insn.D; src = R (h 0); base = I base; off = 0; id = 0;
      pc = 0 }

(* h1 <- h0 + 1 must read h0 from before the bundle, not the 5 an earlier
   op of the bundle writes *)
let staged_read_after_write () =
  decode_rule ~staged:true ~raises:false
    [ set (h 0) 5L; Alu { op = add; dst = h 1; a = R (h 0); b = I 1L } ]

(* a store that faults, into text or at a wild address, must leave h0 as
   it was before the bundle; so must a second taken control op, and the
   hooks of an rdcycle and a Chk may raise *)
let staged_raise_after_write () =
  decode_rule ~staged:true ~raises:true ~text:(0, 256)
    [ set (h 0) 5L; store_to 64L ];
  decode_rule ~staged:true ~raises:true [ set (h 0) 5L; store_to (-8L) ];
  decode_rule ~staged:true ~raises:true
    [ set (h 0) 5L;
      Branch { cond = Gb_riscv.Insn.BEQ; a = R 0; b = R 0; stub = 1 };
      Exit { stub = 0 } ];
  decode_rule ~staged:true ~raises:true
    [ Exit { stub = 0 }; set (h 0) 5L;
      Branch { cond = Gb_riscv.Insn.BEQ; a = R 0; b = R 0; stub = 1 } ];
  decode_rule ~staged:true ~raises:false
    [ set (h 0) 5L; Rdcycle { dst = h 1 } ];
  decode_rule ~staged:true ~raises:false
    [ set (h 0) 5L; Chk { tag = 0; stub = 1 } ]

(* the run's register-count check covers registers below [n_regs] only *)
let staged_write_above_n_regs () =
  decode_rule ~staged:true ~raises:false ~n_regs:(h 2) [ set (h 2) 5L ];
  decode_rule ~staged:true ~raises:false ~n_regs:(h 2)
    [ set (h 0) 5L; Alu { op = add; dst = h 1; a = R (h 2); b = I 1L } ]

(* a rotation through registers, each read before the op that writes it,
   with a store, a taken branch and a load into x0 ahead of the writes:
   in place, as 2, 4 and 7 ops *)
let direct_hazard_free () =
  let rotate =
    [ Mv { dst = h 2; src = R (h 0) };
      Alu { op = add; dst = h 0; a = R (h 1); b = I 1L };
      Load
        { w = Gb_riscv.Insn.D; unsigned = false; dst = h 1; base = R 5; off = 0;
          spec = Some 0; id = 0; pc = 0x100; hoisted = false } ]
  in
  let ahead =
    [ store_to 512L;
      Branch { cond = Gb_riscv.Insn.BNE; a = R 1; b = R 2; stub = 1 };
      Load
        { w = Gb_riscv.Insn.W; unsigned = true; dst = 0; base = R 5; off = -8;
          spec = None; id = 1; pc = 0x104; hoisted = true } ]
  in
  decode_rule ~staged:false ~raises:false
    (List.filteri (fun i _ -> i < 2) rotate);
  decode_rule ~staged:false ~raises:false (store_to 512L :: rotate);
  decode_rule ~staged:false ~raises:false ~width:8
    (ahead @ rotate @ [ set (h 3) 9L ])

let () =
  Alcotest.run "vliw"
    [
      ( "pipeline",
        [
          Alcotest.test_case "straight line" `Quick straight_line;
          Alcotest.test_case "parallel bundle semantics" `Quick
            parallel_semantics;
          Alcotest.test_case "side exit commits" `Quick side_exit_commits;
          Alcotest.test_case "speculative fault deferred" `Quick
            speculative_fault_deferred;
          Alcotest.test_case "duplicate write rejected" `Quick
            duplicate_write_rejected;
          Alcotest.test_case "subword memory ops" `Quick subword_memory_ops;
          Alcotest.test_case "x0 writes discarded" `Quick x0_writes_discarded;
        ] );
      ( "timing",
        [
          Alcotest.test_case "miss stalls pipeline" `Quick miss_stalls_pipeline;
          Alcotest.test_case "cflush forces miss" `Quick cflush_forces_miss;
          Alcotest.test_case "rdcycle observes stalls" `Quick
            rdcycle_observes_stalls;
        ] );
      ( "decode",
        [ QCheck_alcotest.to_alcotest decoded_equals_reference;
          Alcotest.test_case "staged: read after write" `Quick
            staged_read_after_write;
          Alcotest.test_case "staged: raise after write" `Quick
            staged_raise_after_write;
          Alcotest.test_case "staged: write above n_regs" `Quick
            staged_write_above_n_regs;
          Alcotest.test_case "direct: hazard-free bundles" `Quick
            direct_hazard_free ] );
      ( "mcb",
        [
          Alcotest.test_case "rollback on conflict" `Quick mcb_rollback;
          Alcotest.test_case "partial overlap" `Quick mcb_partial_overlap;
          Alcotest.test_case "tag reuse" `Quick mcb_tag_reuse;
          Alcotest.test_case "entries=0 disables" `Quick mcb_disabled;
          Alcotest.test_case "fault hook" `Quick mcb_fault_hook;
        ] );
    ]
