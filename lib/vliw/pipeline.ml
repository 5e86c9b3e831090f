type exit_kind = Vinsn.exit_kind = Fallthrough | Side_exit | Rollback

type exit_info = Vinsn.exit_info = {
  mutable next_pc : int;
  mutable kind : exit_kind;
}

exception Machine_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Machine_error s)) fmt

module Regfile = Gb_riscv.Regfile
module Interp = Gb_riscv.Interp

let rec count_fences bundle i acc =
  if i >= Array.length bundle then acc
  else
    count_fences bundle (i + 1)
      (match bundle.(i) with Vinsn.Fence -> acc + 1 | _ -> acc)

let rec count_nops bundle i acc =
  if i >= Array.length bundle then acc
  else
    count_nops bundle (i + 1)
      (match bundle.(i) with Vinsn.Nop -> acc + 1 | _ -> acc)

(* Attribute the one issue cycle of a bundle at slot granularity: each of
   the [width] slots owns [scale / width] fixed-point units. Useful ops
   are committed work; Fence slots are fence stalls when the mitigation
   inserted fences into this trace (a guest's own architectural fences
   are work, not mitigation cost); Nop slots are lost ILP — issue bubbles
   from schedule gaps or serialization — except in a fenced bundle of a
   mitigated trace, where the fence itself forced the bubble. The split
   is exact for every width dividing {!Gb_obs.Attrib.scale} (all widths
   up to 16); any remainder units go to committed work so conservation
   stays an integer identity. *)
let attribute_bundle a ~mitigated ~cut ~width ~pc bundle =
  let fences = count_fences bundle 0 0 in
  let nops = count_nops bundle 0 0 in
  let module At = Gb_obs.Attrib in
  let per_slot = At.scale / width in
  let rem = At.scale - (per_slot * width) in
  let useful = width - fences - nops in
  let committed, fence_stall, lost_ilp =
    if mitigated && fences > 0 then
      (* the mitigation fenced this bundle: the fence slots and the
         bubbles it forces alongside are both fence cost *)
      (useful, fences + nops, 0)
    else (useful + fences, 0, nops)
  in
  (* a min-cut-protected trace's bubbles are serialization the repairs
     forced, not generic lost ILP: bill them to their own bucket so
     `profile diff` can separate cut cost from schedule gaps *)
  let lost_cause = if cut then At.Cut_protect else At.Nospec_serialization in
  At.add_here a At.Committed_work ~pc ~units:((committed * per_slot) + rem);
  At.add_here a At.Fence_stall ~pc ~units:(fence_stall * per_slot);
  At.add_here a lost_cause ~pc ~units:(lost_ilp * per_slot)

(* The per-op helpers below are top-level functions over the scratch
   state hoisted into {!Machine.t} (write buffer, stall counter, taken
   exit, taint map), so running a decoded op allocates nothing. *)

let take (m : Machine.t) stub kind =
  if m.taken_stub >= 0 then error "two control operations taken in one bundle";
  m.taken_stub <- stub;
  m.taken_kind <- kind

let touch_cache (m : Machine.t) ~pc ~addr ~size ~write =
  if addr >= 0 then begin
    let hit = Gb_cache.Hierarchy.access m.hier ~addr ~size ~write in
    let cost = Gb_cache.Hierarchy.vliw_cost m.hier ~hit in
    m.stall <- m.stall + cost;
    if cost > 0 then
      match Gb_obs.Sink.attrib m.obs with
      | Some a ->
        Gb_obs.Attrib.add_here_cycles a Gb_obs.Attrib.Cache_miss_stall ~pc
          ~cycles:cost
      | None -> ()
  end

(* ---- the decoded form ------------------------------------------------ *)

(* One op, decoded: a closure over the machine, specialised on the op's
   kind and operand forms, with its target register or write slot, stub
   index and constants captured. It never captures a machine or a stub
   record, so one decoded form serves every install of a translation on
   any machine. *)
type dop = Machine.t -> unit

(* A trace's decoded form: bundle [i] is one call of [steps.(i)], which
   runs the bundle's decoded ops in slot order. A direct bundle's ops
   write the register file in place; a staged bundle's ops write the
   parallel-write buffer, which its step then commits. *)
type program = {
  steps : dop array;  (** one per bundle *)
  n_ops : int;
      (** the bundles' ops less those that do nothing when run: Nop,
          Fence, and ALU ops and moves into x0 *)
  staged : int;  (** the bundles that stage their writes *)
  slots : int;  (** the most write slots any staged bundle claims *)
}

type Vinsn.decoded += Decoded of program

(* Where an op's result goes: register [k] of the register file and its
   taint map when its bundle runs direct ([direct] is a constant of the
   closure), write slot [k] of the parallel-write buffer otherwise. *)
let[@inline] out (m : Machine.t) direct = if direct then m.regs else m.w_val

let[@inline] out_taint (m : Machine.t) direct =
  if direct then m.taint else m.w_taint

(* Taint of the value written to [k], read only by an attached audit. A
   register operand passes its taint on; x0 is never tainted, since no
   op writes it, so an operand register needs no x0 test; an immediate
   carries none. *)
let[@inline] taint1 (m : Machine.t) direct k r =
  if m.taint_on then (out_taint m direct).(k) <- m.taint.(r)

let[@inline] taint2 (m : Machine.t) direct k ra rb =
  if m.taint_on then (out_taint m direct).(k) <- m.taint.(ra) || m.taint.(rb)

let[@inline] untainted (m : Machine.t) direct k =
  if m.taint_on then (out_taint m direct).(k) <- false

(* A memory op's base operand as a register and an offset: an immediate
   base folds into the offset over x0, which reads 0 and is never
   tainted. Two functions, so that decode allocates no pair. *)
let base_reg (base : Vinsn.operand) =
  match base with Vinsn.R r -> r | Vinsn.I _ -> 0

let base_off (base : Vinsn.operand) off =
  match base with Vinsn.R _ -> off | Vinsn.I v -> Int64.to_int v + off

(* The op that does nothing; decode drops it. *)
let skip : dop = fun _ -> ()

let duplicate dst : dop = fun _ -> error "duplicate write to register %d" dst

(* ALU ops writing [k]. ADD, SLL and MUL, 95% of the ALU ops a Figure 4
   run executes, have their own closures on the operand forms the code
   generator emits for them; every other op goes through the shared
   {!Interp.alu} with its immediate operand staged in [m.operands]. Two
   immediates fold into a constant. Every closure reads its operands
   before it writes and stores straight from the primitive that
   computes the value, so no value is boxed. *)
let alu_op ~direct op k (a : Vinsn.operand) (b : Vinsn.operand) : dop =
  let open Int64 in
  match (op, a, b) with
  | _, Vinsn.I x, Vinsn.I y ->
    let v = Interp.alu_rr op x y in
    fun m ->
      untainted m direct k;
      Regfile.set (out m direct) k v
  | Gb_riscv.Insn.ADD, Vinsn.R ra, Vinsn.R rb ->
    fun m ->
      taint2 m direct k ra rb;
      Regfile.set (out m direct) k
        (add (Regfile.get m.regs ra) (Regfile.get m.regs rb))
  | Gb_riscv.Insn.ADD, Vinsn.R ra, Vinsn.I y
  | Gb_riscv.Insn.ADD, Vinsn.I y, Vinsn.R ra ->
    fun m ->
      taint1 m direct k ra;
      Regfile.set (out m direct) k (add (Regfile.get m.regs ra) y)
  | Gb_riscv.Insn.MUL, Vinsn.R ra, Vinsn.R rb ->
    fun m ->
      taint2 m direct k ra rb;
      Regfile.set (out m direct) k
        (mul (Regfile.get m.regs ra) (Regfile.get m.regs rb))
  | Gb_riscv.Insn.MUL, Vinsn.R ra, Vinsn.I y
  | Gb_riscv.Insn.MUL, Vinsn.I y, Vinsn.R ra ->
    fun m ->
      taint1 m direct k ra;
      Regfile.set (out m direct) k (mul (Regfile.get m.regs ra) y)
  | Gb_riscv.Insn.SLL, Vinsn.R ra, Vinsn.R rb ->
    fun m ->
      taint2 m direct k ra rb;
      Regfile.set (out m direct) k
        (shift_left (Regfile.get m.regs ra)
           (to_int (Regfile.get m.regs rb) land 63))
  | Gb_riscv.Insn.SLL, Vinsn.R ra, Vinsn.I y ->
    let sh = to_int y land 63 in
    fun m ->
      taint1 m direct k ra;
      Regfile.set (out m direct) k (shift_left (Regfile.get m.regs ra) sh)
  | _, Vinsn.R ra, Vinsn.R rb ->
    fun m ->
      taint2 m direct k ra rb;
      Interp.alu op (out m direct) k m.regs ra m.regs rb
  | _, Vinsn.R ra, Vinsn.I y ->
    fun m ->
      taint1 m direct k ra;
      Regfile.set m.operands 1 y;
      Interp.alu op (out m direct) k m.regs ra m.operands 1
  | _, Vinsn.I x, Vinsn.R rb ->
    fun m ->
      taint1 m direct k rb;
      Regfile.set m.operands 0 x;
      Interp.alu op (out m direct) k m.operands 0 m.regs rb

let mv_op ~direct k (src : Vinsn.operand) : dop =
  match src with
  | Vinsn.R r ->
    fun m ->
      taint1 m direct k r;
      Regfile.move (out m direct) k m.regs r
  | Vinsn.I v ->
    fun m ->
      untainted m direct k;
      Regfile.set (out m direct) k v

(* A read of the clock at bundle issue, through the rdcycle hook when one
   is set; [k] = -1 (x0) discards the reading but still calls the hook,
   which may record it. Nothing is written before the hook returns. *)
let rdcycle_op ~direct k : dop =
 fun m ->
  (* the natural reading is the clock at bundle issue — the batched
     cycles of all previous bundles must be folded in first *)
  Machine.flush_acc m;
  let now = !(m.clock) in
  let v = match m.rdcycle_hook with Some f -> f now | None -> now in
  if k >= 0 then begin
    untainted m direct k;
    Regfile.set (out m direct) k v
  end

(* A load writing [k] (-1: x0, the value is discarded). *)
let load_op ~direct ~w ~unsigned ~k ~base ~off ~spec ~id ~pc ~hoisted : dop =
  let rb = base_reg base and off = base_off base off in
  let size = Interp.width_bytes w in
  let speculative = hoisted || Option.is_some spec in
  fun m ->
    let addr = Int64.to_int (Regfile.get m.regs rb) + off in
    touch_cache m ~pc ~addr ~size ~write:false;
    (match spec with
    | Some tag -> Mcb.alloc m.mcb ~tag ~addr ~size
    | None -> ());
    (match m.audit with
    | Some a when addr >= 0 ->
      Gb_cache.Audit.run_access a ~id ~pc ~addr ~size ~write:false ~speculative
        ~dependent:(m.taint_on && m.taint.(rb))
    | Some _ | None -> ());
    if k >= 0 then begin
      if m.taint_on then
        (out_taint m direct).(k) <- speculative || m.taint.(rb);
      (* Deferred-fault semantics for speculative loads; the bound check
         is overflow-proof ([addr + size] wraps negative near [max_int],
         which would let a speculatively computed address dodge the
         fault path). *)
      if addr < 0 || size > Gb_riscv.Mem.size m.mem - addr then
        Regfile.set (out m direct) k 0L
      else Interp.load_into m.mem ~addr w ~unsigned (out m direct) k
    end

(* A load into a register an earlier op of its bundle already writes
   still probes the cache, allocates its MCB entry and reports to the
   audit, then raises: the write-slot claim always came after those side
   effects. *)
let duplicate_load (load : dop) dst : dop =
 fun m ->
  load m;
  error "duplicate write to register %d" dst

(* what a store does once memory is written *)
let stored (m : Machine.t) ~addr ~size ~id ~pc =
  touch_cache m ~pc ~addr ~size ~write:true;
  Mcb.store_probe m.mcb ~pc ~addr ~size;
  match m.audit with
  | Some a when addr >= 0 ->
    Gb_cache.Audit.run_access a ~id ~pc ~addr ~size ~write:true
      ~speculative:false ~dependent:false
  | Some _ | None -> ()

let store_op ~w ~(src : Vinsn.operand) ~base ~off ~id ~pc : dop =
  let rb = base_reg base and off = base_off base off in
  let size = Interp.width_bytes w in
  match src with
  | Vinsn.R rs ->
    fun m ->
      let addr = Int64.to_int (Regfile.get m.regs rb) + off in
      Interp.store_from m.mem ~addr w m.regs rs;
      stored m ~addr ~size ~id ~pc
  | Vinsn.I v ->
    fun m ->
      let addr = Int64.to_int (Regfile.get m.regs rb) + off in
      Regfile.set m.operands 0 v;
      Interp.store_from m.mem ~addr w m.operands 0;
      stored m ~addr ~size ~id ~pc

(* A side exit to [stub] when the condition holds; a condition on two
   immediates is decided here, and one that never holds is dropped. *)
let branch_op cond (a : Vinsn.operand) (b : Vinsn.operand) stub : dop =
  match (a, b) with
  | Vinsn.R ra, Vinsn.R rb ->
    fun m -> if Interp.cond cond m.regs ra m.regs rb then take m stub Side_exit
  | Vinsn.R ra, Vinsn.I y ->
    fun m ->
      Regfile.set m.operands 1 y;
      if Interp.cond cond m.regs ra m.operands 1 then take m stub Side_exit
  | Vinsn.I x, Vinsn.R rb ->
    fun m ->
      Regfile.set m.operands 0 x;
      if Interp.cond cond m.operands 0 m.regs rb then take m stub Side_exit
  | Vinsn.I x, Vinsn.I y ->
    let f = Regfile.create 2 in
    Regfile.set f 0 x;
    Regfile.set f 1 y;
    if Interp.cond cond f 0 f 1 then fun m -> take m stub Side_exit else skip

let cflush_op ~base ~off ~id ~pc : dop =
  let rb = base_reg base and off = base_off base off in
  fun m ->
    let addr = Int64.to_int (Regfile.get m.regs rb) + off in
    if addr >= 0 then begin
      Gb_cache.Hierarchy.flush_line m.hier addr;
      match m.audit with
      | Some a -> Gb_cache.Audit.run_flush a ~id ~pc ~addr
      | None -> ()
    end

(* Decode one op writing target [k]: the register itself when its bundle
   runs [direct], else its write slot; -1 when it writes x0 (or
   nothing), -2 when an earlier op of the bundle writes the same
   register. [skip] when the op is dropped. *)
let decode_op ~direct k (op : Vinsn.op) =
  match op with
  | Vinsn.Nop | Vinsn.Fence -> skip
  | Vinsn.Alu { op; dst; a; b } -> (
    match k with
    | -1 -> skip
    | -2 -> duplicate dst
    | k -> alu_op ~direct op k a b)
  | Vinsn.Mv { dst; src } -> (
    match k with -1 -> skip | -2 -> duplicate dst | k -> mv_op ~direct k src)
  | Vinsn.Rdcycle { dst } -> (
    match k with -2 -> duplicate dst | k -> rdcycle_op ~direct k)
  | Vinsn.Load { w; unsigned; dst; base; off; spec; id; pc; hoisted } ->
    let load =
      load_op ~direct ~w ~unsigned ~k:(Int.max k (-1)) ~base ~off ~spec ~id
        ~pc ~hoisted
    in
    if k = -2 then duplicate_load load dst else load
  | Vinsn.Store { w; src; base; off; id; pc } ->
    store_op ~w ~src ~base ~off ~id ~pc
  | Vinsn.Branch { cond; a; b; stub } -> branch_op cond a b stub
  | Vinsn.Chk { tag; stub } ->
    fun m -> if Mcb.check m.mcb ~tag then take m stub Rollback
  | Vinsn.Cflush { base; off; id; pc } -> cflush_op ~base ~off ~id ~pc
  | Vinsn.Exit { stub } -> fun m -> take m stub Fallthrough

(* ---- direct or staged ------------------------------------------------- *)

(* The register an op writes; 0 for none, and for x0, whose value is
   discarded. *)
let dst_of (op : Vinsn.op) =
  match op with
  | Vinsn.Alu { dst; _ } | Vinsn.Mv { dst; _ } | Vinsn.Rdcycle { dst }
  | Vinsn.Load { dst; _ } ->
    dst
  | Vinsn.Nop | Vinsn.Fence | Vinsn.Store _ | Vinsn.Branch _ | Vinsn.Chk _
  | Vinsn.Cflush _ | Vinsn.Exit _ ->
    0

let rec count_controls bundle i acc =
  if i >= Array.length bundle then acc
  else
    count_controls bundle (i + 1)
      (match bundle.(i) with
      | Vinsn.Branch _ | Vinsn.Chk _ | Vinsn.Exit _ -> acc + 1
      | _ -> acc)

let rec written (dsts : int array) n (dst : int) i =
  i < n && (dsts.(i) = dst || written dsts n dst (i + 1))

(* Whether reading [o] could tell the writes to [dsts.(0 .. n-1)] from
   writes staged to the end of the cycle: it reads one of them, or a
   register outside the trace's [n_regs], whose read may raise. *)
let reads dsts n ~n_regs (o : Vinsn.operand) =
  match o with
  | Vinsn.I _ -> false
  | Vinsn.R r -> r < 0 || r >= n_regs || written dsts n r 0

(* Whether [op], run after [n] writes to [dsts.(0 .. n-1)] made in
   place, could tell them apart from staged ones: it reads one of them,
   or it can raise and so leave them behind. A store can; so can an
   rdcycle and a Chk, through the machine's rdcycle hook and the MCB's
   fault hook; and so can any control op of a bundle with [controls] >
   1, since the second taken one raises. *)
let sees_writes dsts n ~n_regs ~controls (op : Vinsn.op) =
  n > 0
  &&
  match op with
  | Vinsn.Nop | Vinsn.Fence -> false
  | Vinsn.Store _ | Vinsn.Rdcycle _ | Vinsn.Chk _ -> true
  | Vinsn.Exit _ -> controls > 1
  | Vinsn.Branch { a; b; _ } ->
    controls > 1 || reads dsts n ~n_regs a || reads dsts n ~n_regs b
  | Vinsn.Alu { a; b; _ } -> reads dsts n ~n_regs a || reads dsts n ~n_regs b
  | Vinsn.Mv { src; _ } -> reads dsts n ~n_regs src
  | Vinsn.Load { base; _ } | Vinsn.Cflush { base; _ } ->
    reads dsts n ~n_regs base

(* Whether ops [j ..] of a bundle can write in place after the [n]
   writes of the ops before them, recorded in [dsts]: slot-order
   execution is then indistinguishable from parallel reads and an
   end-of-cycle commit, exceptions included. No op sees an earlier
   write, no register is written twice, and every register written is
   below [n_regs], which {!run} checks the machine has. *)
let rec runs_direct bundle dsts ~n_regs ~controls j n =
  j >= Array.length bundle
  ||
  let op = bundle.(j) in
  (not (sees_writes dsts n ~n_regs ~controls op))
  &&
  let dst = dst_of op in
  if dst = 0 then runs_direct bundle dsts ~n_regs ~controls (j + 1) n
  else
    dst > 0 && dst < n_regs
    && (not (written dsts n dst 0))
    && begin
         dsts.(n) <- dst;
         runs_direct bundle dsts ~n_regs ~controls (j + 1) (n + 1)
       end

(* ---- steps ------------------------------------------------------------ *)

let seq2 (a : dop) (b : dop) : dop =
 fun m ->
  a m;
  b m

let seq3 (a : dop) (b : dop) (c : dop) : dop =
 fun m ->
  a m;
  b m;
  c m

let seq4 (a : dop) (b : dop) (c : dop) (d : dop) : dop =
 fun m ->
  a m;
  b m;
  c m;
  d m

let seq (ops : dop array) : dop =
 fun m ->
  for j = 0 to Array.length ops - 1 do
    ops.(j) m
  done

(* A staged bundle: its ops fill the write buffer, whose slot [k] then
   commits to register [dsts.(k)] (parallel-read semantics). *)
let staged_step (ops : dop array) (dsts : int array) : dop =
 fun m ->
  for j = 0 to Array.length ops - 1 do
    ops.(j) m
  done;
  for k = 0 to Array.length dsts - 1 do
    let dst = dsts.(k) in
    Regfile.move m.regs dst m.w_val k;
    if m.taint_on then m.taint.(dst) <- m.w_taint.(k)
  done

(* The step of a direct bundle of [n] decoded ops, [dops.(0 .. n-1)] *)
let direct_step (dops : dop array) n =
  match n with
  | 0 -> skip
  | 1 -> dops.(0)
  | 2 -> seq2 dops.(0) dops.(1)
  | 3 -> seq3 dops.(0) dops.(1) dops.(2)
  | 4 -> seq4 dops.(0) dops.(1) dops.(2) dops.(3)
  | n -> seq (Array.sub dops 0 n)

(* Decode a trace's bundles, each through the two scratch arrays: [dops]
   takes the bundle's decoded ops, [dsts] the registers it writes, in
   the order its ops write them (a staged bundle's write slots). *)
let decode_bundles (trace : Vinsn.trace) =
  let bundles = trace.bundles and n_regs = trace.n_regs in
  let width =
    Array.fold_left (fun w b -> Int.max w (Array.length b)) 0 bundles
  in
  let dops = Array.make width skip and dsts = Array.make width 0 in
  let n_ops = ref 0 and n_staged = ref 0 and slots = ref 0 in
  let decode_bundle bundle =
    let controls = count_controls bundle 0 0 in
    let direct = runs_direct bundle dsts ~n_regs ~controls 0 0 in
    let n = ref 0 and claimed = ref 0 in
    for j = 0 to Array.length bundle - 1 do
      let op = bundle.(j) in
      let dst = dst_of op in
      let k =
        if dst = 0 then -1
        else if direct then dst
        else if written dsts !claimed dst 0 then -2
        else begin
          dsts.(!claimed) <- dst;
          incr claimed;
          !claimed - 1
        end
      in
      let d = decode_op ~direct k op in
      if d != skip then begin
        dops.(!n) <- d;
        incr n
      end
    done;
    n_ops := !n_ops + !n;
    if direct then direct_step dops !n
    else begin
      incr n_staged;
      slots := Int.max !slots !claimed;
      staged_step (Array.sub dops 0 !n) (Array.sub dsts 0 !claimed)
    end
  in
  let steps = Array.map decode_bundle bundles in
  { steps; n_ops = !n_ops; staged = !n_staged; slots = !slots }

let decode (trace : Vinsn.trace) =
  match trace.decoded with
  | Decoded _ -> ()
  | _ -> trace.decoded <- Decoded (decode_bundles trace)

let decoded_ops (trace : Vinsn.trace) =
  match trace.decoded with Decoded p -> p.n_ops | _ -> 0

let staged_bundles (trace : Vinsn.trace) =
  match trace.decoded with Decoded p -> p.staged | _ -> 0

(* ---- execution ------------------------------------------------------- *)

let rec apply_commits (m : Machine.t) commits =
  match commits with
  | [] -> ()
  | (dst, src) :: rest ->
    if dst = 0 || dst >= Vinsn.guest_regs then
      error "stub commit to non-guest register %d" dst;
    (match src with
    | Vinsn.R r -> Regfile.move m.regs dst m.regs r
    | Vinsn.I v -> Regfile.set m.regs dst v);
    apply_commits m rest

let finish (m : Machine.t) (trace : Vinsn.trace) ~width ~bundle_idx stub_idx
    kind =
  let open Vinsn in
  (* the run is over. Observers (the audit's end-of-run diff, event
     stamping through an active sink) must see the exact pre-commit
     clock, so flush for them here; without one the accumulators keep
     batching and fold exactly once below, after the commit/penalty
     booking — one int64 materialisation per run instead of two *)
  if Option.is_some m.audit || Gb_obs.Sink.is_active m.obs then
    Machine.flush_acc m;
  let stub = trace.stubs.(stub_idx) in
  (match m.audit with
  | Some a -> Gb_cache.Audit.end_run a ~exit_id:stub.exit_id
  | None -> ());
  apply_commits m stub.commits;
  let commit_cycles = (stub.n_commits + width - 1) / width in
  (* a fall-through exit continues with sequential fetch, no pipeline
     flush; only mispredicted side exits and MCB rollbacks pay the
     refill penalty *)
  let penalty =
    match kind with
    | Fallthrough -> 0
    | Side_exit | Rollback -> m.cfg.exit_penalty
  in
  m.acc_cycles <- m.acc_cycles + commit_cycles + penalty;
  Machine.flush_acc m;
  (match Gb_obs.Sink.attrib m.obs with
  | Some a ->
    let module At = Gb_obs.Attrib in
    if commit_cycles > 0 then
      At.add_here_cycles a At.Committed_work ~pc:trace.entry_pc
        ~cycles:commit_cycles;
    if penalty > 0 then
      At.add_here_cycles a
        (match kind with Rollback -> At.Mcb_rollback | _ -> At.Dispatcher_exit)
        ~pc:stub.target_pc ~cycles:penalty
  | None -> ());
  (match kind with
  | Side_exit -> m.stats.side_exits <- m.stats.side_exits + 1
  | Rollback -> m.stats.rollbacks <- m.stats.rollbacks + 1
  | Fallthrough -> m.stats.fallthroughs <- m.stats.fallthroughs + 1);
  if Gb_obs.Sink.is_active m.obs then begin
    (match kind with
    | Rollback ->
      Gb_obs.Sink.event m.obs ~pc:stub.target_pc ~region:trace.entry_pc
        Gb_obs.Event.Rollback
    | Side_exit | Fallthrough -> ());
    (* how deep into the trace the run got before leaving *)
    Gb_obs.Sink.observe m.obs "vliw.exit_bundle" (float_of_int (bundle_idx + 1))
  end;
  let r = m.exit_scratch in
  r.next_pc <- stub.target_pc;
  r.kind <- kind;
  r

(* The bundle loop: run bundle [i]'s step, which leaves its writes in
   the register file, advance the clock, and stop at the first taken
   exit. A top-level function of its state rather than a local
   [let rec], which would allocate a closure on every pass. *)
let rec cycle (m : Machine.t) (trace : Vinsn.trace) steps attrib ~width i =
  if i >= Array.length steps then
    error "trace fell off the end without an Exit op"
  else begin
    m.stall <- 0;
    m.taken_stub <- -1;
    steps.(i) m;
    m.acc_bundles <- m.acc_bundles + 1;
    m.acc_stalls <- m.acc_stalls + m.stall;
    m.acc_cycles <- m.acc_cycles + 1 + m.stall;
    if m.eager then Machine.flush_acc m;
    (* the cache-miss part of this advance was attributed op-by-op in
       touch_cache; the one issue cycle splits across the slots here.
       Mitigation-inserted fences mark this translation's Fence/Nop
       slots as mitigation cost; a trace the mitigation never touched
       charges its fences (the guest's own) to committed work *)
    (match attrib with
    | Some a ->
      let meta = trace.meta in
      attribute_bundle a ~mitigated:(meta.fences_inserted > 0)
        ~cut:(meta.cut_protects > 0) ~width ~pc:trace.entry_pc
        trace.bundles.(i)
    | None -> ());
    if m.taken_stub >= 0 then
      finish m trace ~width ~bundle_idx:i m.taken_stub m.taken_kind
    else cycle m trace steps attrib ~width (i + 1)
  end

(* Execute one pass over a trace. The mutable per-cycle state lives in
   the machine's scratch fields; a staged bundle's register writes are
   buffered and applied at end of cycle to get the parallel-read
   semantics right. *)
let run (m : Machine.t) (trace : Vinsn.trace) =
  let open Vinsn in
  if Regfile.length m.regs < trace.n_regs then
    error "trace needs %d registers, machine has %d" trace.n_regs
      (Regfile.length m.regs);
  let p =
    match trace.decoded with
    | Decoded p -> p
    | _ -> error "trace @0x%x was never decoded" trace.entry_pc
  in
  let width =
    if Array.length trace.bundles = 0 then 1
    else Array.length trace.bundles.(0)
  in
  let attrib = Gb_obs.Sink.attrib m.obs in
  (match attrib with
  | Some a -> Gb_obs.Attrib.enter a ~entry:trace.entry_pc
  | None -> ());
  Mcb.clear m.mcb;
  m.stats.trace_runs <- m.stats.trace_runs + 1;
  m.stats.guest_insns <- m.stats.guest_insns + trace.guest_insns;
  (match m.audit with
  | Some a -> Gb_cache.Audit.begin_run a ~region:trace.entry_pc
  | None -> ());
  (* Per-run taint over the register file: set by speculative loads,
     propagated through Alu/Mv, read to decide whether a load's address
     was derived from speculatively loaded data (the leak condition the
     audit scores). Dead weight unless an audit is attached. *)
  m.taint_on <- (match m.audit with Some _ -> true | None -> false);
  if m.taint_on then Array.fill m.taint 0 (Array.length m.taint) false;
  Machine.ensure_write_capacity m p.slots;
  (* an active sink stamps events (cache misses, MCB conflicts) with the
     clock mid-run, and an audit diffs shadow state per run: both need
     the pre-batching per-bundle flush; otherwise the accumulators are
     invisible until the next flush point and bundle advance allocates
     nothing *)
  m.eager <- Gb_obs.Sink.is_active m.obs || m.taint_on || Option.is_some attrib;
  try cycle m trace p.steps attrib ~width 0
  with e ->
    Machine.flush_acc m;
    raise e
