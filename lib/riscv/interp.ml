type hooks = {
  mem_extra : addr:int -> size:int -> write:bool -> int;
  flush_line : int -> unit;
}

let pure_hooks =
  { mem_extra = (fun ~addr:_ ~size:_ ~write:_ -> 0); flush_line = ignore }

(* A decode-cache entry carries the instruction plus its pre-boxed
   64-bit immediate (shifted and sign-extended once, at decode time), so
   the Op_imm/Lui/Auipc hot paths never rebuild an [Int64] from the raw
   immediate field: reading it back out of the box allocates nothing. *)
type centry = { ce_insn : Insn.t; ce_imm : int64 }

(* Physical-equality sentinel for "not decoded yet". Sound because
   {!Decode.decode} always returns a freshly allocated instruction, so no
   real entry can be physically equal to this one; an [Insn.t option]
   cache here would allocate a [Some] per fill and force an extra
   indirection per fetch. *)
let undecoded = { ce_insn = Insn.Fence; ce_imm = 0L }

type t = {
  regs : Regfile.t;
  mem : Mem.t;
  clock : int64 ref;
  hooks : hooks;
  has_hooks : bool;
      (* false when [hooks == pure_hooks]: lets the hot loop skip the
         hook calls (and the accumulator flushes that keep hook-visible
         state exact) entirely *)
  mutable pc : int;
  mutable insn_count : int64;
  output : Buffer.t;
  decode_cache : centry array;
      (* per-word decode cache; sound because guest code is never
         self-modifying in this system *)
  mutable rdcycle_hook : (int64 -> int64) option;
      (* filters every rdcycle result (differential record/replay) *)
  (* Scratch state for the allocation-free execution core: [exec_insn]
     reports control flow through these fields instead of returning an
     allocated record. -1 means "not set" for [x_taken]/[x_exit]. *)
  mutable x_next : int;
  mutable x_taken : int;
  mutable x_exit : int;
  (* Batched instruction/cycle counters used by {!run}: flushed into
     [insn_count]/[clock] before anything that can observe them (hooks,
     rdcycle, traps, exit). Always 0 outside {!run}. *)
  mutable acc_insns : int;
  mutable acc_cycles : int;
  scratch : Regfile.t;
      (* slot 0 takes every write to x0, so [regs] slot 0 is never
         written and stays zero; slot 1 stages an Op_imm immediate for
         {!alu} *)
}

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

let default_sp mem = Int64.of_int (Mem.size mem - 16)

let create ?(hooks = pure_hooks) ?clock ?regs ~mem ~pc () =
  let clock = match clock with Some c -> c | None -> ref 0L in
  let regs =
    match regs with
    | Some r ->
      (* never mutated here: a shared register file may be handed back
         mid-computation (sp in use as a scratch register); callers that
         want the convention use {!default_sp} — the same single source
         of truth as the self-allocated path below *)
      assert (Regfile.length r >= 32);
      r
    | None ->
      let r = Regfile.create 32 in
      Regfile.set r Reg.sp (default_sp mem);
      r
  in
  {
    regs;
    mem;
    clock;
    hooks;
    has_hooks = hooks != pure_hooks;
    pc;
    insn_count = 0L;
    output = Buffer.create 64;
    decode_cache = Array.make (Mem.size mem / 4) undecoded;
    rdcycle_hook = None;
    x_next = 0;
    x_taken = -1;
    x_exit = -1;
    acc_insns = 0;
    acc_cycles = 0;
    scratch = Regfile.create 2;
  }

let flush_decode_cache t =
  Array.fill t.decode_cache 0 (Array.length t.decode_cache) undecoded

type step_info = {
  s_pc : int;
  s_insn : Insn.t;
  s_next : int;
  s_taken : bool option;
  s_exit : int option;
}

(* Sign-extend the low 32 bits entirely in the native-int domain: going
   through [Int64.to_int32]/[of_int32] would box an intermediate int32 on
   top of the int64 result. Bit 31 lands on bit 62 (the native sign bit)
   after the shift, so [asr] extends it; the bits shifted out above are
   exactly the ones a W-op discards. *)
let[@inline] sext32_int v = Int64.of_int ((v lsl 31) asr 31)

let[@inline] sext32 v = sext32_int (Int64.to_int v)

(* The helpers below are [@inline] so that, inside {!alu}, each arm is
   one primitive expression from register reads to register write and
   nothing is boxed: an out-of-line call would box its int64 arguments
   and result. *)

(* Unsigned 64x64 -> high 64 bits, via 32-bit limbs. *)
let[@inline] mulhu x y =
  let open Int64 in
  let mask32 = 0xFFFFFFFFL in
  let x0 = logand x mask32 and x1 = shift_right_logical x 32 in
  let y0 = logand y mask32 and y1 = shift_right_logical y 32 in
  let t = mul x0 y0 in
  let k = shift_right_logical t 32 in
  let t = add (mul x1 y0) k in
  let w1 = logand t mask32 and w2 = shift_right_logical t 32 in
  let t = add (mul x0 y1) w1 in
  add (add (mul x1 y1) w2) (shift_right_logical t 32)

(* [Int64.unsigned_div]/[unsigned_rem] are out of line in the standard
   library; this is the same algorithm, inlinable *)
let[@inline] udiv n d =
  let open Int64 in
  if compare d 0L < 0 then (if unsigned_compare n d < 0 then 0L else 1L)
  else
    let q = shift_left (div (shift_right_logical n 1) d) 1 in
    let r = sub n (mul q d) in
    if unsigned_compare r d >= 0 then succ q else q

let[@inline] urem n d = Int64.sub n (Int64.mul (udiv n d) d)

(* Every arm stores its result with its own [Regfile.set]: binding one
   result across the arms of the match would box it in every arm (see
   docs/INTERNALS.md §12). *)
let alu op d rd a ra b rb =
  let x = Regfile.get a ra and y = Regfile.get b rb in
  let open Int64 in
  match op with
  | Insn.ADD -> Regfile.set d rd (add x y)
  | Insn.SUB -> Regfile.set d rd (sub x y)
  | Insn.SLL -> Regfile.set d rd (shift_left x (to_int y land 63))
  | Insn.SLT -> Regfile.set d rd (of_int (Bool.to_int (compare x y < 0)))
  | Insn.SLTU ->
    Regfile.set d rd (of_int (Bool.to_int (unsigned_compare x y < 0)))
  | Insn.XOR -> Regfile.set d rd (logxor x y)
  | Insn.SRL -> Regfile.set d rd (shift_right_logical x (to_int y land 63))
  | Insn.SRA -> Regfile.set d rd (shift_right x (to_int y land 63))
  | Insn.OR -> Regfile.set d rd (logor x y)
  | Insn.AND -> Regfile.set d rd (logand x y)
  (* the W-suffixed ALU ops only keep the low 32 bits of their result, so
     the whole computation fits the native-int domain (truncation
     commutes with +/-/*/shift) *)
  | Insn.ADDW -> Regfile.set d rd (sext32_int (to_int x + to_int y))
  | Insn.SUBW -> Regfile.set d rd (sext32_int (to_int x - to_int y))
  | Insn.SLLW ->
    Regfile.set d rd (sext32_int (to_int x lsl (to_int y land 31)))
  | Insn.SRLW ->
    Regfile.set d rd
      (sext32_int ((to_int x land 0xFFFFFFFF) lsr (to_int y land 31)))
  | Insn.SRAW ->
    Regfile.set d rd
      (sext32_int (((to_int x lsl 31) asr 31) asr (to_int y land 31)))
  | Insn.MUL -> Regfile.set d rd (mul x y)
  | Insn.MULH ->
    (* signed high word: correct the unsigned one for each negative
       operand *)
    Regfile.set d rd
      (sub
         (sub (mulhu x y) (logand y (shift_right x 63)))
         (logand x (shift_right y 63)))
  | Insn.MULHSU ->
    Regfile.set d rd (sub (mulhu x y) (logand y (shift_right x 63)))
  | Insn.MULHU -> Regfile.set d rd (mulhu x y)
  (* division never traps: by zero gives all ones (quotient) or the
     dividend (remainder); min_int / -1 overflows to min_int, rem 0 *)
  | Insn.DIV ->
    if equal y 0L then Regfile.set d rd (-1L)
    else if equal x min_int && equal y (-1L) then Regfile.set d rd min_int
    else Regfile.set d rd (div x y)
  | Insn.DIVU ->
    if equal y 0L then Regfile.set d rd (-1L) else Regfile.set d rd (udiv x y)
  | Insn.REM ->
    if equal y 0L then Regfile.set d rd x
    else if equal x min_int && equal y (-1L) then Regfile.set d rd 0L
    else Regfile.set d rd (rem x y)
  | Insn.REMU ->
    if equal y 0L then Regfile.set d rd x else Regfile.set d rd (urem x y)
  | Insn.MULW -> Regfile.set d rd (sext32_int (to_int x * to_int y))
  (* 32-bit operands as native ints: exact, and no int64 intermediates *)
  | Insn.DIVW ->
    let x = (to_int x lsl 31) asr 31 and y = (to_int y lsl 31) asr 31 in
    if y = 0 then Regfile.set d rd (-1L)
    else Regfile.set d rd (sext32_int (x / y))
  | Insn.DIVUW ->
    let x = to_int x land 0xFFFFFFFF and y = to_int y land 0xFFFFFFFF in
    if y = 0 then Regfile.set d rd (-1L)
    else Regfile.set d rd (sext32_int (x / y))
  | Insn.REMW ->
    let x = (to_int x lsl 31) asr 31 and y = (to_int y lsl 31) asr 31 in
    if y = 0 then Regfile.set d rd (sext32_int x)
    else Regfile.set d rd (sext32_int (x mod y))
  | Insn.REMUW ->
    let x = to_int x land 0xFFFFFFFF and y = to_int y land 0xFFFFFFFF in
    if y = 0 then Regfile.set d rd (sext32_int x)
    else Regfile.set d rd (sext32_int (x mod y))

let alu_rr op a b =
  let f = Regfile.create 3 in
  Regfile.set f 1 a;
  Regfile.set f 2 b;
  alu op f 0 f 1 f 2;
  Regfile.get f 0

let alu_of_imm = function
  | Insn.ADDI -> Insn.ADD
  | Insn.SLTI -> Insn.SLT
  | Insn.SLTIU -> Insn.SLTU
  | Insn.XORI -> Insn.XOR
  | Insn.ORI -> Insn.OR
  | Insn.ANDI -> Insn.AND
  | Insn.SLLI -> Insn.SLL
  | Insn.SRLI -> Insn.SRL
  | Insn.SRAI -> Insn.SRA
  | Insn.ADDIW -> Insn.ADDW
  | Insn.SLLIW -> Insn.SLLW
  | Insn.SRLIW -> Insn.SRLW
  | Insn.SRAIW -> Insn.SRAW

let width_bytes = function Insn.B -> 1 | Insn.H -> 2 | Insn.W -> 4 | Insn.D -> 8

let cond c a ra b rb =
  let x = Regfile.get a ra and y = Regfile.get b rb in
  match c with
  | Insn.BEQ -> Int64.equal x y
  | Insn.BNE -> not (Int64.equal x y)
  | Insn.BLT -> Int64.compare x y < 0
  | Insn.BGE -> Int64.compare x y >= 0
  | Insn.BLTU -> Int64.unsigned_compare x y < 0
  | Insn.BGEU -> Int64.unsigned_compare x y >= 0

(* sub-word loads sign/zero-extend in the native-int domain *)
let load_into mem ~addr w ~unsigned d rd =
  match w with
  | Insn.D -> Regfile.set d rd (Mem.load64 mem ~addr)
  | Insn.B | Insn.H | Insn.W ->
    let size = width_bytes w in
    let raw = Mem.load_int mem ~addr ~size in
    let sh = Sys.int_size - (8 * size) in
    Regfile.set d rd
      (Int64.of_int (if unsigned then raw else (raw lsl sh) asr sh))

let store_from mem ~addr w s r =
  match w with
  | Insn.D -> Mem.store64 mem ~addr (Regfile.get s r)
  | Insn.B | Insn.H | Insn.W ->
    Mem.store_int mem ~addr ~size:(width_bytes w)
      (Int64.to_int (Regfile.get s r))

let imm_of_insn insn =
  match insn with
  | Insn.Op_imm (_, _, _, imm) -> Int64.of_int imm
  | Insn.Lui (_, imm) | Insn.Auipc (_, imm) ->
    sext32 (Int64.of_int (imm lsl 12))
  | _ -> 0L

(* Cold path of {!fetch}: decode the word and fill the cache slot. An
   illegal encoding reached by (possibly speculatively computed) control
   flow is a guest error, not an internal one, so it raises the same
   clean {!Trap} as a fetch fault instead of leaking {!Decode.Illegal}. *)
let decode_slot t pc slot =
  match Decode.decode (Mem.load_insn_word t.mem ~addr:pc) with
  | insn ->
    let ce = { ce_insn = insn; ce_imm = imm_of_insn insn } in
    t.decode_cache.(slot) <- ce;
    ce
  | exception Decode.Illegal word ->
    trap "illegal instruction 0x%08x at pc 0x%x" word pc

let fetch t pc =
  (* [pc lsr 2] also maps negative pcs to huge slots, so the single bound
     check rejects both ends of the range *)
  let slot = pc lsr 2 in
  if pc land 3 <> 0 || slot >= Array.length t.decode_cache then
    trap "instruction fetch fault at pc 0x%x (misaligned or out of range)" pc;
  let ce = Array.unsafe_get t.decode_cache slot in
  if ce != undecoded then ce else decode_slot t pc slot

let flush_acc t =
  if t.acc_insns <> 0 then begin
    t.insn_count <- Int64.add t.insn_count (Int64.of_int t.acc_insns);
    t.acc_insns <- 0
  end;
  if t.acc_cycles <> 0 then begin
    t.clock := Int64.add !(t.clock) (Int64.of_int t.acc_cycles);
    t.acc_cycles <- 0
  end

(* The register file a write to [rd] goes to: a write to x0 lands in
   the discard slot, so x0 reads as zero without a test on every read. *)
let[@inline] dst t rd = if rd = 0 then t.scratch else t.regs

let[@inline] addr_of t rs1 off = Int64.to_int (Regfile.get t.regs rs1) + off

(* Execute one decoded instruction; returns extra memory cycles. Control
   flow is reported through [t.x_next]/[t.x_taken]/[t.x_exit] (pre-reset
   by the caller), and every result is written to the register file by
   the primitive that computes it, so the common case allocates nothing.
   [flush_acc] runs before every point that can observe the
   architectural counters — hook calls (which may stamp observability
   events with the clock), rdcycle — keeping batched {!run} execution
   bit-identical to stepped execution. *)
let exec_insn t pc ce =
  match ce.ce_insn with
  | Insn.Op_imm (op, rd, rs1, _) ->
    Regfile.set t.scratch 1 ce.ce_imm;
    alu (alu_of_imm op) (dst t rd) rd t.regs rs1 t.scratch 1;
    0
  | Insn.Op (op, rd, rs1, rs2) ->
    alu op (dst t rd) rd t.regs rs1 t.regs rs2;
    0
  | Insn.Lui (rd, _) ->
    Regfile.set (dst t rd) rd ce.ce_imm;
    0
  | Insn.Auipc (rd, _) ->
    (* exact: both operands are far below the 63-bit native-int range,
       so the int sum equals the Int64 sum *)
    Regfile.set (dst t rd) rd (Int64.of_int (pc + Int64.to_int ce.ce_imm));
    0
  | Insn.Load (w, unsigned, rd, rs1, off) ->
    let addr = addr_of t rs1 off in
    (* a load into x0 still faults and still reaches the cache *)
    load_into t.mem ~addr w ~unsigned (dst t rd) rd;
    if t.has_hooks then begin
      flush_acc t;
      t.hooks.mem_extra ~addr ~size:(width_bytes w) ~write:false
    end
    else 0
  | Insn.Store (w, rs2, rs1, off) ->
    let addr = addr_of t rs1 off in
    store_from t.mem ~addr w t.regs rs2;
    if t.has_hooks then begin
      flush_acc t;
      t.hooks.mem_extra ~addr ~size:(width_bytes w) ~write:true
    end
    else 0
  | Insn.Branch (c, rs1, rs2, off) ->
    let b = cond c t.regs rs1 t.regs rs2 in
    t.x_taken <- (if b then 1 else 0);
    if b then t.x_next <- pc + off;
    0
  | Insn.Jal (rd, off) ->
    Regfile.set (dst t rd) rd (Int64.of_int (pc + 4));
    t.x_next <- pc + off;
    0
  | Insn.Jalr (rd, rs1, off) ->
    let target = addr_of t rs1 off land lnot 1 in
    Regfile.set (dst t rd) rd (Int64.of_int (pc + 4));
    t.x_next <- target;
    0
  | Insn.Ecall -> (
    match Int64.to_int (Regfile.get t.regs Reg.a7) with
    | 93 ->
      t.x_exit <- Int64.to_int (Regfile.get t.regs Reg.a0) land 0xff;
      0
    | 64 ->
      Buffer.add_char t.output
        (Char.chr (Int64.to_int (Regfile.get t.regs Reg.a0) land 0xff));
      0
    | n -> trap "unknown ecall %d at pc 0x%x" n pc)
  | Insn.Fence -> 0
  | Insn.Rdcycle rd ->
    flush_acc t;
    Regfile.set (dst t rd) rd
      (match t.rdcycle_hook with
      | Some f -> f !(t.clock)
      | None -> !(t.clock));
    0
  | Insn.Cflush rs1 ->
    if t.has_hooks then begin
      flush_acc t;
      t.hooks.flush_line (Int64.to_int (Regfile.get t.regs rs1))
    end;
    0

let step t =
  let pc = t.pc in
  let ce = fetch t pc in
  t.x_next <- pc + 4;
  t.x_taken <- -1;
  t.x_exit <- -1;
  let extra = exec_insn t pc ce in
  t.pc <- t.x_next;
  t.insn_count <- Int64.add t.insn_count 1L;
  t.clock := Int64.add !(t.clock) (Int64.of_int (1 + extra));
  {
    s_pc = pc;
    s_insn = ce.ce_insn;
    s_next = t.x_next;
    s_taken = (if t.x_taken < 0 then None else Some (t.x_taken <> 0));
    s_exit = (if t.x_exit < 0 then None else Some t.x_exit);
  }

let run ?(max_insns = 1_000_000_000L) t =
  (* native-int budget: clamping is exact because a simulation can never
     execute [max_int] instructions, so "budget >= max_int" and "budget =
     max_insns" trap at the same (unreachable) point *)
  let budget =
    if Int64.compare max_insns (Int64.of_int max_int) >= 0 then max_int
    else Int64.to_int max_insns
  in
  let rec go () =
    if Int64.to_int t.insn_count + t.acc_insns > budget then begin
      flush_acc t;
      trap "instruction budget exceeded"
    end;
    let pc = t.pc in
    let ce = fetch t pc in
    t.x_next <- pc + 4;
    t.x_taken <- -1;
    t.x_exit <- -1;
    let extra = exec_insn t pc ce in
    t.pc <- t.x_next;
    t.acc_insns <- t.acc_insns + 1;
    t.acc_cycles <- t.acc_cycles + 1 + extra;
    if t.x_exit >= 0 then begin
      flush_acc t;
      t.x_exit
    end
    else go ()
  in
  (* any escape (Trap, Mem.Fault) must leave [insn_count]/[clock] exactly
     as stepped execution would: counted up to, not including, the
     faulting instruction *)
  try go () with e -> flush_acc t; raise e
