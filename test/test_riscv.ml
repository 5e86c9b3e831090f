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
      Asm.La (Reg.t0, "buf");
      Asm.Li (Reg.t1, 0x1122334455667788L |> Int64.logand 0x7FFFFFFFL);
      Asm.Insn (Store (D, Reg.t1, Reg.t0, 0));
      Asm.Insn (Load (B, true, Reg.a0, Reg.t0, 1));
      Asm.Li (Reg.a7, 93L);
      Asm.Insn Ecall;
      Asm.Label "buf";
      Asm.Dword [ 0L ];
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
      Asm.Label "c";
      Asm.Insn Insn.Ecall;
      Asm.Dbyte [ 1 ];
      Asm.Label "b";
      Asm.Dword [ 7L ];
      Asm.Label "d";
    ]
  in
  let p = Asm.assemble ~base:0x2000 items in
  Alcotest.(check int) "a" 0x2000 (Asm.symbol p "a");
  Alcotest.(check int) "c" 0x2004 (Asm.symbol p "c");
  (* byte at 0x2008, dword aligns to 0x2010 *)
  Alcotest.(check int) "b" 0x2010 (Asm.symbol p "b");
  Alcotest.(check int) "d: the end" 0x2018 (Asm.symbol p "d");
  Alcotest.(check int) "text ends after the last instruction" 0x2008
    p.Asm.text_end

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
      ignore (Asm.assemble [ Asm.Li (5, 0x1_0000_0000L) ]));
  (* text runs to the last instruction, so no data may sit inside it *)
  List.iter
    (fun data ->
      Alcotest.check_raises "data before code"
        (Asm.Error "data before an instruction: data must follow all code")
        (fun () ->
          ignore
            (Asm.assemble
               [ Asm.Insn Insn.Fence; data; Asm.Label "l";
                 Asm.Insn Insn.Ecall ])))
    [ Asm.Dword [ 0L ]; Asm.Dbyte [ 1 ]; Asm.Dstring "s"; Asm.Space 0 ]

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

(* --- paged memory ---------------------------------------------------------- *)

(* The accessors the model test drives, on [Gb_riscv.Mem] and on the
   flat model. *)
module type MEM = sig
  type t

  val load : t -> addr:int -> size:int -> int64
  val load_int : t -> addr:int -> size:int -> int
  val load64 : t -> addr:int -> int64
  val store : t -> addr:int -> size:int -> int64 -> unit
  val store_int : t -> addr:int -> size:int -> int -> unit
  val store64 : t -> addr:int -> int64 -> unit
  val load_insn_word : t -> addr:int -> int
  val blit_bytes : t -> addr:int -> bytes -> unit
  val read_bytes : t -> addr:int -> len:int -> bytes
  val set_text : t -> lo:int -> hi:int -> unit
end

(* What [Mem] must agree with: one flat [Bytes] of the whole size and a
   text range, with [Mem]'s bound check, text check, argument checks and
   their order. *)
module Flat = struct
  type t = { b : Bytes.t; mutable lo : int; mutable hi : int }

  let check t addr n =
    if addr < 0 || n > Bytes.length t.b - addr then
      raise (Gb_riscv.Mem.Fault addr)

  (* W^X: a write that overlaps text faults *)
  let check_write t addr n =
    check t addr n;
    if addr < t.hi && addr + n > t.lo then raise (Gb_riscv.Mem.Fault addr)

  let load_int t ~addr ~size =
    check t addr size;
    match size with
    | 1 -> Bytes.get_uint8 t.b addr
    | 2 -> Bytes.get_uint16_le t.b addr
    | 4 -> Int32.to_int (Bytes.get_int32_le t.b addr) land 0xFFFF_FFFF
    | _ -> invalid_arg "Flat.load_int"

  let load64 t ~addr =
    check t addr 8;
    Bytes.get_int64_le t.b addr

  let load t ~addr ~size =
    match size with
    | 1 | 2 | 4 -> Int64.of_int (load_int t ~addr ~size)
    | 8 -> load64 t ~addr
    | _ -> invalid_arg "Flat.load"

  let store_int t ~addr ~size v =
    check_write t addr size;
    match size with
    | 1 -> Bytes.set_uint8 t.b addr (v land 0xff)
    | 2 -> Bytes.set_uint16_le t.b addr (v land 0xffff)
    | 4 -> Bytes.set_int32_le t.b addr (Int32.of_int v)
    | _ -> invalid_arg "Flat.store_int"

  let store64 t ~addr v =
    check_write t addr 8;
    Bytes.set_int64_le t.b addr v

  (* like [load], the size is checked before the address *)
  let store t ~addr ~size v =
    match size with
    | 1 | 2 | 4 -> store_int t ~addr ~size (Int64.to_int v)
    | 8 -> store64 t ~addr v
    | _ -> invalid_arg "Flat.store"

  (* an aligned word inside text, and nothing else *)
  let load_insn_word t ~addr =
    if addr land 3 <> 0 || addr < t.lo || addr >= t.hi then
      raise (Gb_riscv.Mem.Fault addr);
    load_int t ~addr ~size:4

  let blit_bytes t ~addr b =
    let len = Bytes.length b in
    if len = 0 then check t addr len else check_write t addr len;
    Bytes.blit b 0 t.b addr len

  let read_bytes t ~addr ~len =
    check t addr len;
    Bytes.sub t.b addr len

  (* once: a second declaration is refused *)
  let set_text t ~lo ~hi =
    if t.hi > 0 then invalid_arg "Flat.set_text";
    if lo land 3 <> 0 || hi land 3 <> 0 || lo < 0 || hi < lo
       || hi > Bytes.length t.b
    then invalid_arg "Flat.set_text";
    t.lo <- lo;
    t.hi <- hi
end

type mem_op =
  | Load of int * int
  | Load_int of int * int
  | Load64 of int
  | Store of int * int * int64
  | Store_int of int * int * int
  | Store64 of int * int64
  | Insn_word of int
  | Blit of int * string
  | Read of int * int
  | Text of int * int

let show_op = function
  | Load (a, n) -> Printf.sprintf "load %d %d" a n
  | Load_int (a, n) -> Printf.sprintf "load_int %d %d" a n
  | Load64 a -> Printf.sprintf "load64 %d" a
  | Store (a, n, v) -> Printf.sprintf "store %d %d %Ld" a n v
  | Store_int (a, n, v) -> Printf.sprintf "store_int %d %d %d" a n v
  | Store64 (a, v) -> Printf.sprintf "store64 %d %Ld" a v
  | Insn_word a -> Printf.sprintf "load_insn_word %d" a
  | Blit (a, b) -> Printf.sprintf "blit_bytes %d (%d bytes)" a (String.length b)
  | Read (a, n) -> Printf.sprintf "read_bytes %d %d" a n
  | Text (lo, hi) -> Printf.sprintf "set_text %d %d" lo hi

(* what an operation returned or raised; every [Invalid_argument] is
   one outcome, whatever its message *)
type outcome = Value of string | Fault of int | Invalid

let show_outcome = function
  | Value v -> "value " ^ String.escaped v
  | Fault a -> Printf.sprintf "Fault %d" a
  | Invalid -> "Invalid_argument"

let apply (type m) (module M : MEM with type t = m) (mem : m) op =
  match
    match op with
    | Load (addr, size) -> Int64.to_string (M.load mem ~addr ~size)
    | Load_int (addr, size) -> string_of_int (M.load_int mem ~addr ~size)
    | Load64 addr -> Int64.to_string (M.load64 mem ~addr)
    | Store (addr, size, v) -> M.store mem ~addr ~size v; ""
    | Store_int (addr, size, v) -> M.store_int mem ~addr ~size v; ""
    | Store64 (addr, v) -> M.store64 mem ~addr v; ""
    | Insn_word addr -> string_of_int (M.load_insn_word mem ~addr)
    | Blit (addr, b) -> M.blit_bytes mem ~addr (Bytes.of_string b); ""
    | Read (addr, len) -> Bytes.to_string (M.read_bytes mem ~addr ~len)
    | Text (lo, hi) -> M.set_text mem ~lo ~hi; ""
  with
  | v -> Value v
  | exception Gb_riscv.Mem.Fault a -> Fault a
  | exception Invalid_argument _ -> Invalid

(* Memory sizes with a partial last page among them, addresses biased
   towards the boundaries: within 7 bytes of a page edge, 0, the last 8
   bytes and the end, negative, and [max_int]; and text ranges, mostly
   word-aligned, over the same boundaries. *)
let gen_mem_case =
  let open QCheck.Gen in
  let* size = oneofl [ 0; 8; 4095; 4096; 4097; 3 * 4096; (3 * 4096) + 1234 ] in
  let edge =
    map2 (fun k d -> (4096 * k) + d) (int_range 0 4) (int_range (-7) 7)
  in
  let addr =
    frequency
      [ (4, edge); (2, int_range 0 (size + 8)); (1, return 0);
        (2, map (fun d -> size - d) (int_range 0 8));
        (1, int_range (-16) (-1));
        (1, oneofl [ max_int; max_int - 3; min_int ]) ]
  in
  let width =
    frequency [ (8, oneofl [ 1; 2; 4; 8 ]); (1, oneofl [ -1; 0; 3; 16 ]) ]
  in
  let text_end =
    frequency
      [ (6, map (fun a -> a land lnot 3) edge); (1, edge);
        (1, map (fun d -> (size land lnot 3) - (4 * d)) (int_range (-1) 2)) ]
  in
  let blit_len = frequency [ (3, int_range 0 16); (2, int_range 0 9000) ] in
  let len = frequency [ (5, blit_len); (1, int_range (-3) (-1)) ] in
  let op =
    frequency
      [ (3, map2 (fun a n -> Load (a, n)) addr width);
        (3, map2 (fun a n -> Load_int (a, n)) addr width);
        (3, map (fun a -> Load64 a) addr);
        (3, map3 (fun a n v -> Store (a, n, v)) addr width ui64);
        (3, map3 (fun a n v -> Store_int (a, n, v)) addr width int);
        (3, map2 (fun a v -> Store64 (a, v)) addr ui64);
        (2, map (fun a -> Insn_word a) addr);
        (1, map2 (fun a s -> Blit (a, s)) addr (string_size ~gen:char blit_len));
        (2, map2 (fun a n -> Read (a, n)) addr len);
        (2, map2 (fun lo hi -> Text (lo, hi)) text_end text_end) ]
  in
  pair (return size) (list_size (int_range 1 60) op)

let mem_model_prop =
  QCheck.Test.make ~count:400 ~name:"paged memory = flat model"
    (QCheck.make
       ~print:(fun (size, ops) ->
         Printf.sprintf "size %d: %s" size
           (String.concat "; " (List.map show_op ops)))
       gen_mem_case)
    (fun (size, ops) ->
      let paged = Gb_riscv.Mem.create ~size
      and flat = { Flat.b = Bytes.make size '\000'; lo = 0; hi = 0 } in
      List.iter
        (fun op ->
          let got = apply (module Gb_riscv.Mem) paged op
          and want = apply (module Flat) flat op in
          if got <> want then
            QCheck.Test.fail_reportf "%s: %s, model %s" (show_op op)
              (show_outcome got) (show_outcome want))
        ops;
      Bytes.equal (Gb_riscv.Mem.read_bytes paged ~addr:0 ~len:size) flat.Flat.b)

(* addresses at the start, in the middle, at the end and across the
   edge of a page, each written with a different width *)
let isolation_writes =
  [ (0, 1); (0x1ffc, 4); (0x2ffe, 2); (0x3ffc, 8); (0x5000, 8); (0x4fff, 1) ]

let write_all mem v =
  List.iter
    (fun (addr, size) -> Gb_riscv.Mem.store mem ~addr ~size v)
    isolation_writes

(* each address reads the low [size] bytes of [v], zero-extended *)
let check_all what mem v =
  List.iter
    (fun (addr, size) ->
      let unused = 64 - (8 * size) in
      Alcotest.(check int64)
        (Printf.sprintf "%s at 0x%x" what addr)
        (Int64.shift_right_logical (Int64.shift_left v unused) unused)
        (Gb_riscv.Mem.load mem ~addr ~size))
    isolation_writes

(* No memory sees another's stores: the page every fresh memory starts
   with is shared and must stay zero. *)
let fresh_memory_is_zero () =
  let size = 0x8000 in
  let a = Gb_riscv.Mem.create ~size in
  write_all a 0x0102_0304_0506_0708L;
  let b = Gb_riscv.Mem.create ~size in
  check_all "fresh memory" b 0L;
  Alcotest.(check bool) "fresh memory reads all zero" true
    (Bytes.equal (Gb_riscv.Mem.read_bytes b ~addr:0 ~len:size)
       (Bytes.make size '\000'));
  check_all "written memory" a 0x0102_0304_0506_0708L

(* After [copy], neither side sees the other's stores: on pages the
   original had written before the copy, and on pages still zero then. *)
let copy_is_private () =
  let size = 0x8000 in
  let a = Gb_riscv.Mem.create ~size in
  Gb_riscv.Mem.store64 a ~addr:0x2000 0x1111L;
  let b = Gb_riscv.Mem.copy a in
  Alcotest.(check int64) "copy reads the original's page" 0x1111L
    (Gb_riscv.Mem.load64 b ~addr:0x2000);
  (* a private page at copy time *)
  Gb_riscv.Mem.store64 a ~addr:0x2008 0x2222L;
  Gb_riscv.Mem.store64 b ~addr:0x2010 0x3333L;
  Alcotest.(check int64) "copy misses a later store to the original" 0L
    (Gb_riscv.Mem.load64 b ~addr:0x2008);
  Alcotest.(check int64) "original misses a store to the copy" 0L
    (Gb_riscv.Mem.load64 a ~addr:0x2010);
  (* pages that were still zero at copy time *)
  write_all a 0x4444L;
  check_all "copy after stores to the original" b 0L;
  write_all b 0x5555L;
  check_all "original after stores to the copy" a 0x4444L;
  check_all "copy" b 0x5555L;
  (* the copy has the original's text, and refuses stores into it *)
  Gb_riscv.Mem.set_text a ~lo:0x6000 ~hi:0x6010;
  let c = Gb_riscv.Mem.copy a in
  Alcotest.check_raises "copy refuses a store into text"
    (Gb_riscv.Mem.Fault 0x600c) (fun () ->
      Gb_riscv.Mem.store_int c ~addr:0x600c ~size:4 0);
  Alcotest.check_raises "copy's text is declared" (Invalid_argument
    "Mem.set_text: text already declared") (fun () ->
      Gb_riscv.Mem.set_text c ~lo:0 ~hi:0)

(* Decode caches are private too: two interpreters whose memories hold
   different words at the same pc each run their own word, before and
   after a flush of the first one's cache. *)
let decode_cache_is_private () =
  let open Gb_riscv in
  let program k =
    Asm.assemble
      [ Asm.Insn (Insn.Op_imm (Insn.ADDI, Reg.a0, Reg.zero, k));
        Asm.Li (Reg.a7, 93L); Asm.Insn Insn.Ecall ]
  in
  let interp k =
    let p = program k in
    let mem = Mem.create ~size:(1 lsl 16) in
    Asm.load mem p;
    Interp.create ~mem ~pc:p.Asm.entry ()
  in
  let a = interp 1 in
  Alcotest.(check int) "first interpreter" 1 (Interp.run a);
  Alcotest.(check int) "second interpreter, same pc" 2 (Interp.run (interp 2));
  Interp.flush_decode_cache a;
  a.Interp.pc <- (program 1).Asm.entry;
  Alcotest.(check int) "first interpreter after a flush" 1 (Interp.run a);
  Alcotest.(check int) "third interpreter, same pc" 3 (Interp.run (interp 3))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "riscv"
    [
      ( "encoding",
        [
          Alcotest.test_case "golden words" `Quick golden_encodings;
          qt roundtrip_prop;
          qt word_in_range_prop;
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
      ( "mem",
        [
          qt mem_model_prop;
          Alcotest.test_case "a fresh memory reads zero" `Quick
            fresh_memory_is_zero;
          Alcotest.test_case "copies are private" `Quick copy_is_private;
          Alcotest.test_case "decode caches are private" `Quick
            decode_cache_is_private;
        ] );
      ( "disasm",
        [
          qt disasm_roundtrip_prop;
          Alcotest.test_case "listing with labels" `Quick disasm_listing;
          Alcotest.test_case "illegal words" `Quick disasm_illegal_words;
        ] );
    ]
