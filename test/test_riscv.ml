(* Tests for the guest ISA: encoding golden vectors, encode/decode
   round-trips, interpreter arithmetic semantics, assembler programs. *)

let check_word name expected insn =
  Alcotest.(check int) name expected (Gb_riscv.Encode.encode insn)

let golden_encodings () =
  let open Gb_riscv.Insn in
  check_word "addi a5, a5, 1" 0x00178793 (Op_imm (ADDI, 15, 15, 1));
  check_word "add ra, sp, gp" 0x003100B3 (Op (ADD, 1, 2, 3));
  check_word "lui t0, 0x12345" 0x123452B7 (Lui (5, 0x12345));
  check_word "ld t1, 8(t2)" 0x0083B303 (Load (D, false, 6, 7, 8));
  check_word "sd t1, 16(t2)" 0x0063B823 (Store (D, 6, 7, 16));
  check_word "beq x0, x0, -4" 0xFE000EE3 (Branch (BEQ, 0, 0, -4));
  check_word "ecall" 0x00000073 Ecall;
  check_word "rdcycle t0" 0xC00022F3 (Rdcycle 5);
  check_word "mul a0, a1, a2" 0x02C58533 (Op (MUL, 10, 11, 12))

(* Generator of arbitrary well-formed instructions. *)
let arb_insn =
  let open Gb_riscv.Insn in
  let open QCheck in
  let reg = Gen.int_range 0 31 in
  let imm12 = Gen.int_range (-2048) 2047 in
  let uimm20 = Gen.int_range 0 ((1 lsl 20) - 1) in
  let opri_no_shift =
    Gen.oneofl [ ADDI; SLTI; SLTIU; XORI; ORI; ANDI; ADDIW ]
  in
  let oprr =
    Gen.oneofl
      [ ADD; SUB; SLL; SLT; SLTU; XOR; SRL; SRA; OR; AND; ADDW; SUBW; SLLW;
        SRLW; SRAW; MUL; MULH; MULHSU; MULHU; DIV; DIVU; REM; REMU; MULW;
        DIVW; DIVUW; REMW; REMUW ]
  in
  let width = Gen.oneofl [ B; H; W; D ] in
  let cond = Gen.oneofl [ BEQ; BNE; BLT; BGE; BLTU; BGEU ] in
  let gen =
    Gen.oneof
      [
        Gen.map3 (fun op rd (rs1, imm) -> Op_imm (op, rd, rs1, imm))
          opri_no_shift reg (Gen.pair reg imm12);
        Gen.map3 (fun rd rs1 sh -> Op_imm (SLLI, rd, rs1, sh)) reg reg
          (Gen.int_range 0 63);
        Gen.map3 (fun rd rs1 sh -> Op_imm (SRAIW, rd, rs1, sh)) reg reg
          (Gen.int_range 0 31);
        Gen.map3 (fun op rd (rs1, rs2) -> Op (op, rd, rs1, rs2)) oprr reg
          (Gen.pair reg reg);
        Gen.map2 (fun rd imm -> Lui (rd, imm)) reg uimm20;
        Gen.map2 (fun rd imm -> Auipc (rd, imm)) reg uimm20;
        Gen.map3
          (fun (w, u) rd (rs1, off) ->
            let u = if w = D then false else u in
            Load (w, u, rd, rs1, off))
          (Gen.pair width Gen.bool) reg (Gen.pair reg imm12);
        Gen.map3 (fun w rs2 (rs1, off) -> Store (w, rs2, rs1, off)) width reg
          (Gen.pair reg imm12);
        Gen.map3
          (fun c (rs1, rs2) off -> Branch (c, rs1, rs2, 2 * off))
          cond (Gen.pair reg reg)
          (Gen.int_range (-2048) 2047);
        Gen.map2 (fun rd off -> Jal (rd, 2 * off)) reg
          (Gen.int_range (-(1 lsl 19)) ((1 lsl 19) - 1));
        Gen.map3 (fun rd rs1 off -> Jalr (rd, rs1, off)) reg reg imm12;
        Gen.return Ecall;
        Gen.return Fence;
        Gen.map (fun rd -> Rdcycle rd) reg;
        Gen.map (fun rs1 -> Cflush rs1) reg;
      ]
  in
  make ~print:to_string gen

let roundtrip_prop =
  QCheck.Test.make ~count:2000 ~name:"decode (encode i) = i" arb_insn
    (fun insn ->
      Gb_riscv.Decode.decode (Gb_riscv.Encode.encode insn) = insn)

(* [Insn.equal] against structural equality, on an instruction and its
   neighbour one encoding bit away: most neighbours differ from it in a
   single field, and an undecodable one is replaced by the instruction
   itself. *)
let equal_prop =
  let arb =
    QCheck.make
      ~print:(fun (insn, bit) ->
        Printf.sprintf "%s, bit %d" (Gb_riscv.Insn.to_string insn) bit)
      (QCheck.Gen.pair (QCheck.gen arb_insn) (QCheck.Gen.int_range 0 31))
  in
  QCheck.Test.make ~count:2000 ~name:"Insn.equal = structural equality" arb
    (fun (insn, bit) ->
      let neighbour =
        match
          Gb_riscv.Decode.decode (Gb_riscv.Encode.encode insn lxor (1 lsl bit))
        with
        | other -> other
        | exception Gb_riscv.Decode.Illegal _ -> insn
      in
      Gb_riscv.Insn.equal insn neighbour = (insn = neighbour)
      && Gb_riscv.Insn.equal insn
           (Gb_riscv.Decode.decode (Gb_riscv.Encode.encode insn)))

let word_in_range_prop =
  QCheck.Test.make ~count:2000 ~name:"encoded word fits in 32 bits" arb_insn
    (fun insn ->
      let w = Gb_riscv.Encode.encode insn in
      w >= 0 && w < 1 lsl 32)

let run_items ?(mem_size = 1 lsl 16) items =
  let program = Gb_riscv.Asm.assemble items in
  let mem = Gb_riscv.Mem.create ~size:mem_size in
  Gb_riscv.Asm.load mem program;
  let interp = Gb_riscv.Interp.create ~mem ~pc:program.Gb_riscv.Asm.entry () in
  let code = Gb_riscv.Interp.run interp in
  (code, interp)

let exit_with items = fst (run_items items)

let asm_exit code =
  let open Gb_riscv in
  [ Asm.Li (Reg.a0, Int64.of_int code); Asm.Li (Reg.a7, 93L); Asm.Insn Insn.Ecall ]

let sum_loop () =
  (* sum of 1..10 computed with a loop: exits with 55 *)
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  let items =
    [
      Asm.Li (Reg.t0, 0L) (* acc *);
      Asm.Li (Reg.t1, 1L) (* i *);
      Asm.Li (Reg.t2, 10L);
      Asm.Label "loop";
      Asm.Insn (Op (ADD, Reg.t0, Reg.t0, Reg.t1));
      Asm.Insn (Op_imm (ADDI, Reg.t1, Reg.t1, 1));
      Asm.Branch_to (BGE, Reg.t2, Reg.t1, "loop");
      Asm.Insn (Op (ADD, Reg.a0, Reg.t0, Reg.zero));
      Asm.Li (Reg.a7, 93L);
      Asm.Insn Ecall;
    ]
  in
  Alcotest.(check int) "sum 1..10" 55 (exit_with items)

let memory_roundtrip () =
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  (* store a 64-bit constant, reload a byte of it *)
  let items =
    [
      Asm.Jal_to (Reg.zero, "start");
      Asm.Label "buf";
      Asm.Dword [ 0L ];
      Asm.Label "start";
      Asm.La (Reg.t0, "buf");
      Asm.Li (Reg.t1, 0x1122334455667788L |> Int64.logand 0x7FFFFFFFL);
      Asm.Insn (Store (D, Reg.t1, Reg.t0, 0));
      Asm.Insn (Load (B, true, Reg.a0, Reg.t0, 1));
      Asm.Li (Reg.a7, 93L);
      Asm.Insn Ecall;
    ]
  in
  (* low 32 bits of the masked constant are 0x55667788; byte 1 is 0x77 *)
  Alcotest.(check int) "byte extract" 0x77 (exit_with items)

let check_alu name expected op a b =
  let got = Gb_riscv.Interp.alu_rr op a b in
  Alcotest.(check int64) name expected got

let arithmetic_edge_cases () =
  let open Gb_riscv.Insn in
  check_alu "div by zero" (-1L) DIV 42L 0L;
  check_alu "rem by zero" 42L REM 42L 0L;
  check_alu "div overflow" Int64.min_int DIV Int64.min_int (-1L);
  check_alu "rem overflow" 0L REM Int64.min_int (-1L);
  check_alu "divu by zero" (-1L) DIVU 42L 0L;
  check_alu "mulhu max" 0xFFFFFFFFFFFFFFFEL MULHU (-1L) (-1L);
  check_alu "mulh -1 -1" 0L MULH (-1L) (-1L);
  check_alu "mulh min min" 0x4000000000000000L MULH Int64.min_int Int64.min_int;
  check_alu "mulhsu -1 max-u" (-1L) MULHSU (-1L) (-1L);
  check_alu "sltu" 1L SLTU 1L (-1L);
  check_alu "slt" 0L SLT 1L (-1L);
  check_alu "sraw" (-1L) SRAW 0x80000000L 31L;
  check_alu "srlw" 1L SRLW 0x80000000L 31L;
  check_alu "addw wrap" Int64.min_int MUL 2L 0x4000000000000000L;
  check_alu "divw by zero" (-1L) DIVW 5L 0L;
  check_alu "remuw" 3L REMUW 7L 4L

let mulhu_reference_prop =
  (* mulhu agrees with schoolbook multiplication through 32-bit halves
     recombined differently *)
  let arb = QCheck.(pair int64 int64) in
  QCheck.Test.make ~count:1000 ~name:"mulhu matches shifted products" arb
    (fun (a, b) ->
      let full_low = Int64.mul a b in
      let h = Gb_riscv.Interp.mulhu a b in
      (* (h, full_low) must be the exact 128-bit unsigned product: verify via
         the identity a*b = h*2^64 + low by recomputing low from h-free
         32-bit pieces. *)
      let open Int64 in
      let mask32 = 0xFFFFFFFFL in
      let a0 = logand a mask32 and a1 = shift_right_logical a 32 in
      let b0 = logand b mask32 and b1 = shift_right_logical b 32 in
      let low =
        add (mul a0 b0)
          (shift_left (add (mul a0 b1) (mul a1 b0)) 32)
      in
      equal low full_low
      &&
      (* h is deterministic and symmetric *)
      equal h (Gb_riscv.Interp.mulhu b a))

let rdcycle_monotonic () =
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  let items =
    [
      Asm.Insn (Rdcycle Reg.t0);
      Asm.Insn (Op_imm (ADDI, Reg.t1, Reg.zero, 0));
      Asm.Insn (Rdcycle Reg.t1);
      Asm.Insn (Op (SUB, Reg.a0, Reg.t1, Reg.t0));
      Asm.Li (Reg.a7, 93L);
      Asm.Insn Ecall;
    ]
  in
  let delta = exit_with items in
  Alcotest.(check bool) "cycle counter advanced" true (delta >= 2)

let output_ecall () =
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  let items =
    [
      Asm.Li (Reg.a0, 72L) (* 'H' *);
      Asm.Li (Reg.a7, 64L);
      Asm.Insn Ecall;
      Asm.Li (Reg.a0, 105L) (* 'i' *);
      Asm.Insn Ecall;
    ]
    @ asm_exit 0
  in
  let _, interp = run_items items in
  Alcotest.(check string) "output" "Hi" (Buffer.contents interp.Interp.output)

let label_addresses () =
  let open Gb_riscv in
  let items =
    [
      Asm.Label "a";
      Asm.Insn Insn.Fence;
      Asm.Dbyte [ 1 ];
      Asm.Label "b";
      Asm.Dword [ 7L ];
      Asm.Label "c";
      Asm.Insn Insn.Ecall;
    ]
  in
  let p = Asm.assemble ~base:0x2000 items in
  Alcotest.(check int) "a" 0x2000 (Asm.symbol p "a");
  (* byte at 0x2004, dword aligns to 0x2008 *)
  Alcotest.(check int) "b" 0x2008 (Asm.symbol p "b");
  Alcotest.(check int) "c" 0x2010 (Asm.symbol p "c")

let asm_errors () =
  let open Gb_riscv in
  Alcotest.check_raises "undefined label"
    (Asm.Error "undefined label nowhere") (fun () ->
      ignore (Asm.assemble [ Asm.Jal_to (0, "nowhere") ]));
  Alcotest.check_raises "duplicate label" (Asm.Error "duplicate label x")
    (fun () ->
      ignore
        (Asm.assemble [ Asm.Label "x"; Asm.Insn Insn.Fence; Asm.Label "x" ]));
  (* conditional branches have a +-4 KiB range *)
  let far_branch =
    [ Asm.Branch_to (Insn.BEQ, 0, 0, "far") ]
    @ List.init 2000 (fun _ -> Asm.Insn Insn.Fence)
    @ [ Asm.Label "far"; Asm.Insn Insn.Ecall ]
  in
  (match Asm.assemble far_branch with
  | exception Asm.Error message ->
    Alcotest.(check bool) "range error mentions the label" true
      (String.length message > 0)
  | _ -> Alcotest.fail "expected a branch range error");
  (* li only accepts 32-bit constants *)
  Alcotest.check_raises "li out of range"
    (Asm.Error "li: constant 4294967296 does not fit in 32 bits") (fun () ->
      ignore (Asm.assemble [ Asm.Li (5, 0x1_0000_0000L) ]))

let li_values_prop =
  (* li materialises arbitrary 32-bit constants exactly *)
  let arb = QCheck.(map Int64.of_int32 int32) in
  QCheck.Test.make ~count:300 ~name:"li materialises int32 constants" arb
    (fun v ->
      let open Gb_riscv in
      let items =
        [ Asm.Li (Reg.t0, v);
          Asm.Insn (Insn.Store (Insn.D, Reg.t0, Reg.sp, 0));
        ]
        @ asm_exit 0
      in
      let _, interp = run_items items in
      let sp = Int64.to_int (Gb_riscv.Regfile.get interp.Interp.regs Reg.sp) in
      Int64.equal v (Mem.load interp.Interp.mem ~addr:sp ~size:8))

let fault_on_bad_access () =
  let open Gb_riscv in
  let open Gb_riscv.Insn in
  let items =
    [ Asm.Li (Reg.t0, -8L); Asm.Insn (Load (D, false, Reg.a0, Reg.t0, 0)) ]
    @ asm_exit 0
  in
  let program = Asm.assemble items in
  let mem = Mem.create ~size:(1 lsl 16) in
  Asm.load mem program;
  let interp = Interp.create ~mem ~pc:program.Asm.entry () in
  Alcotest.check_raises "fault" (Mem.Fault (-8)) (fun () ->
      ignore (Interp.run interp))

let disasm_roundtrip_prop =
  (* every encodable instruction disassembles back to its own rendering *)
  QCheck.Test.make ~count:500 ~name:"disassembly matches pretty-printer"
    arb_insn (fun insn ->
      let mem = Gb_riscv.Mem.create ~size:64 in
      Gb_riscv.Mem.store mem ~addr:0 ~size:4
        (Int64.of_int (Gb_riscv.Encode.encode insn));
      match Gb_riscv.Disasm.disassemble mem ~addr:0 ~len:4 with
      | [ line ] -> line.Gb_riscv.Disasm.text = Gb_riscv.Insn.to_string insn
      | _ -> false)

let disasm_listing () =
  let open Gb_riscv in
  let program =
    Asm.assemble
      [
        Asm.Label "entry";
        Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.t0, Reg.zero, 1));
        Asm.Label "loop";
        Asm.Branch_to (Insn.BNE, Reg.t0, Reg.zero, "loop");
        Asm.Insn Insn.Ecall;
      ]
  in
  let listing = Disasm.dump program in
  Alcotest.(check bool) "labels rendered" true
    (String.length listing > 0
    && String.index_opt listing ':' <> None
    &&
    let contains needle =
      let n = String.length needle and h = String.length listing in
      let rec go i = i + n <= h && (String.sub listing i n = needle || go (i + 1)) in
      go 0
    in
    contains "entry:" && contains "loop:" && contains "-> loop")

let disasm_illegal_words () =
  let mem = Gb_riscv.Mem.create ~size:64 in
  Gb_riscv.Mem.store mem ~addr:0 ~size:4 0xFFFFFFFFL;
  match Gb_riscv.Disasm.disassemble mem ~addr:0 ~len:4 with
  | [ line ] ->
    Alcotest.(check string) "raw word" ".word 0xffffffff"
      line.Gb_riscv.Disasm.text
  | _ -> Alcotest.fail "expected one line"

(* Regression: a misaligned or out-of-range pc must raise a clean guest
   Trap from fetch, not an array-bounds or memory exception (pre-fix, a
   jalr to an odd-but-4-unaligned or negative target escaped as
   Invalid_argument from the decode cache). *)
let fetch_fault_clean_trap () =
  let mem = Gb_riscv.Mem.create ~size:4096 in
  let expect_fetch_trap what pc =
    let t = Gb_riscv.Interp.create ~mem ~pc () in
    match Gb_riscv.Interp.step t with
    | _ -> Alcotest.failf "%s: expected a trap at pc 0x%x" what pc
    | exception Gb_riscv.Interp.Trap m ->
      Alcotest.(check bool)
        (what ^ ": trap names the fetch fault")
        true
        (String.length m >= 23
        && String.sub m 0 23 = "instruction fetch fault")
    | exception e ->
      Alcotest.failf "%s: expected Trap, got %s" what (Printexc.to_string e)
  in
  expect_fetch_trap "misaligned" 0x1002;
  expect_fetch_trap "past end of memory" 8192;
  expect_fetch_trap "negative" (-4);
  expect_fetch_trap "misaligned and negative" (-3)

(* Regression: the initial stack pointer convention lives in exactly one
   place. The self-allocated register file uses it, and create never
   mutates a caller-supplied file (sp may be live scratch state when an
   interpreter is re-created over a shared file mid-computation). *)
let default_sp_convention () =
  let mem = Gb_riscv.Mem.create ~size:4096 in
  Alcotest.(check int64) "16 bytes below top" (Int64.of_int (4096 - 16))
    (Gb_riscv.Interp.default_sp mem);
  let t = Gb_riscv.Interp.create ~mem ~pc:0 () in
  Alcotest.(check int64) "fresh file gets the convention"
    (Gb_riscv.Interp.default_sp mem)
    (Gb_riscv.Regfile.get t.Gb_riscv.Interp.regs Gb_riscv.Reg.sp);
  let shared = Gb_riscv.Regfile.create 32 in
  Gb_riscv.Regfile.set shared Gb_riscv.Reg.sp 0L (* live zero, not "unset" *);
  let t2 = Gb_riscv.Interp.create ~regs:shared ~mem ~pc:0 () in
  Alcotest.(check int64) "caller-supplied file is never mutated" 0L
    (Gb_riscv.Regfile.get t2.Gb_riscv.Interp.regs Gb_riscv.Reg.sp)

(* x0 is hard-wired to zero: every instruction form that writes a
   register targets it here, and reads of it must still see 0 (the
   writes land in a discard slot, never in the register file). *)
let x0_hardwired () =
  let open Gb_riscv in
  let open Insn in
  let items =
    [ Asm.Insn (Op_imm (ADDI, Reg.t0, Reg.zero, 7));
      Asm.Insn (Op_imm (ADDI, Reg.zero, Reg.t0, 5));
      Asm.Insn (Op (MUL, Reg.zero, Reg.t0, Reg.t0));
      Asm.Insn (Lui (Reg.zero, 1)); Asm.Insn (Auipc (Reg.zero, 1));
      Asm.Insn (Store (D, Reg.t0, Reg.sp, 0));
      Asm.Insn (Load (D, false, Reg.zero, Reg.sp, 0));
      Asm.Insn (Rdcycle Reg.zero); Asm.Jal_to (Reg.zero, "next");
      Asm.Label "next";
      Asm.Insn (Op (ADD, Reg.a0, Reg.zero, Reg.zero));
      Asm.Insn (Op_imm (ADDI, Reg.a7, Reg.zero, 93)); Asm.Insn Ecall ]
  in
  let code, interp = run_items items in
  Alcotest.(check int) "x0 reads 0" 0 code;
  Alcotest.(check int64) "slot 0 never written" 0L
    (Regfile.get interp.Interp.regs Reg.zero)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "riscv"
    [
      ( "encoding",
        [
          Alcotest.test_case "golden words" `Quick golden_encodings;
          qt roundtrip_prop;
          qt word_in_range_prop;
          qt equal_prop;
        ] );
      ( "interp",
        [
          Alcotest.test_case "sum loop" `Quick sum_loop;
          Alcotest.test_case "memory roundtrip" `Quick memory_roundtrip;
          Alcotest.test_case "arithmetic edge cases" `Quick
            arithmetic_edge_cases;
          Alcotest.test_case "rdcycle monotonic" `Quick rdcycle_monotonic;
          Alcotest.test_case "output ecall" `Quick output_ecall;
          Alcotest.test_case "fault on bad access" `Quick fault_on_bad_access;
          Alcotest.test_case "fetch fault is a clean trap" `Quick
            fetch_fault_clean_trap;
          Alcotest.test_case "default sp convention" `Quick
            default_sp_convention;
          Alcotest.test_case "x0 hard-wired to zero" `Quick x0_hardwired;
          qt mulhu_reference_prop;
        ] );
      ( "asm",
        [
          Alcotest.test_case "label addresses" `Quick label_addresses;
          Alcotest.test_case "errors" `Quick asm_errors;
          qt li_values_prop;
        ] );
      ( "disasm",
        [
          qt disasm_roundtrip_prop;
          Alcotest.test_case "listing with labels" `Quick disasm_listing;
          Alcotest.test_case "illegal words" `Quick disasm_illegal_words;
        ] );
    ]
