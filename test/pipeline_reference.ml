(* The VLIW pipeline's bundle loop as it was before decode: every op of
   every bundle interpreted by a match on [Vinsn.op] ([exec_op]), each
   register write claiming the next parallel-write slot at run time with
   a scan for duplicates ([write_slot]). Kept verbatim as the reference
   that the decoded closures of {!Gb_vliw.Pipeline} must match bundle for
   bundle (test_vliw's "decoded = reference" property); only the scratch
   state it owned in [Machine.t] lives in the local [Machine] below, next
   to the machine it shares everything else with. *)

open Gb_vliw

module Machine = struct
  type t = {
    cfg : Gb_vliw.Machine.config;
    regs : Gb_riscv.Regfile.t;
    mem : Gb_riscv.Mem.t;
    hier : Gb_cache.Hierarchy.t;
    clock : int64 ref;
    mcb : Mcb.t;
    stats : Gb_vliw.Machine.stats;
    obs : Gb_obs.Sink.t;
    audit : Gb_cache.Audit.t option;
    rdcycle_hook : (int64 -> int64) option;
    mutable w_dst : int array;
    mutable w_val : Gb_riscv.Regfile.t;
    mutable w_taint : bool array;
    mutable n_writes : int;
    operands : Gb_riscv.Regfile.t;
    mutable stall : int;
    mutable taken_stub : int;
    mutable taken_kind : Vinsn.exit_kind;
    taint : bool array;
    mutable taint_on : bool;
    mutable acc_bundles : int;
    mutable acc_stalls : int;
    mutable acc_cycles : int;
    mutable eager : bool;
    exit_scratch : Vinsn.exit_info;
  }

  (* the reference's view of [m]: the same registers, memory, caches,
     clock, MCB, statistics, sink, audit and taint map, with scratch of
     its own *)
  let of_machine (m : Gb_vliw.Machine.t) =
    {
      cfg = m.cfg;
      regs = m.regs;
      mem = m.mem;
      hier = m.hier;
      clock = m.clock;
      mcb = m.mcb;
      stats = m.stats;
      obs = m.obs;
      audit = m.audit;
      rdcycle_hook = m.rdcycle_hook;
      w_dst = Array.make 32 0;
      w_val = Gb_riscv.Regfile.create 32;
      w_taint = Array.make 32 false;
      n_writes = 0;
      operands = Gb_riscv.Regfile.create 2;
      stall = 0;
      taken_stub = -1;
      taken_kind = Vinsn.Fallthrough;
      taint = m.taint;
      taint_on = false;
      acc_bundles = 0;
      acc_stalls = 0;
      acc_cycles = 0;
      eager = true;
      exit_scratch = m.exit_scratch;
    }

  let flush_acc t =
    if t.acc_bundles <> 0 then begin
      t.stats.bundles <- t.stats.bundles + t.acc_bundles;
      t.acc_bundles <- 0
    end;
    if t.acc_stalls <> 0 then begin
      t.stats.stall_cycles <- t.stats.stall_cycles + t.acc_stalls;
      t.acc_stalls <- 0
    end;
    if t.acc_cycles <> 0 then begin
      t.clock := Int64.add !(t.clock) (Int64.of_int t.acc_cycles);
      t.acc_cycles <- 0
    end

  (* grow the parallel-write buffer to at least [n] slots (wider traces
     than any seen before); steady state never allocates *)
  let ensure_write_capacity t n =
    if Array.length t.w_dst < n then begin
      t.w_dst <- Array.make n 0;
      t.w_val <- Gb_riscv.Regfile.create n;
      t.w_taint <- Array.make n false
    end
end

type exit_kind = Vinsn.exit_kind = Fallthrough | Side_exit | Rollback

type exit_info = Vinsn.exit_info = {
  mutable next_pc : int;
  mutable kind : exit_kind;
}

let error fmt =
  Printf.ksprintf (fun s -> raise (Pipeline.Machine_error s)) fmt

module Regfile = Gb_riscv.Regfile
module Interp = Gb_riscv.Interp

(* An operand's value. Use it only as the direct argument of a
   primitive, as the address computations below do: bound by a [let],
   the join with the [I v] arm, which allocates nothing, would box the
   register arm. Slot 0 is x0, which neither tier ever writes. *)
let[@inline] eval (m : Machine.t) = function
  | Vinsn.R r -> Regfile.get m.regs r
  | Vinsn.I v -> v

(* Copy an operand's value into slot [k] of [d] without materialising
   it. *)
let[@inline] read_into (m : Machine.t) d k = function
  | Vinsn.R r -> Regfile.move d k m.regs r
  | Vinsn.I v -> Regfile.set d k v

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

(* The per-bundle helpers below are top-level functions over the scratch
   state hoisted into {!Machine.t} (write buffer, stall counter, taken
   exit, taint map): defining them inside [run] — as closures over
   local refs — used to allocate a closure set per trace run and a
   ref/option/tuple churn per bundle. *)

let[@inline] tainted (m : Machine.t) op =
  m.taint_on
  && match op with Vinsn.R r -> r <> 0 && m.taint.(r) | Vinsn.I _ -> false

(* Claim the next parallel-write slot for [dst] and return its index:
   the op then writes its result straight into [m.w_val] at that slot
   (destination-passing: a value returned through a function would be
   boxed). A write to x0 gets the first free slot without claiming it,
   so the value is computed and discarded. *)
let write_slot (m : Machine.t) ~taint dst =
  let n = m.n_writes in
  if dst <> 0 then begin
    for i = 0 to n - 1 do
      if m.w_dst.(i) = dst then error "duplicate write to register %d" dst
    done;
    m.w_dst.(n) <- dst;
    m.w_taint.(n) <- taint;
    m.n_writes <- n + 1
  end;
  n

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

let exec_op (m : Machine.t) op =
  let open Vinsn in
  match op with
  | Nop | Fence -> ()
  | Alu { op; dst; a; b } ->
    let k = write_slot m ~taint:(tainted m a || tainted m b) dst in
    read_into m m.operands 0 a;
    read_into m m.operands 1 b;
    Interp.alu op m.w_val k m.operands 0 m.operands 1
  | Mv { dst; src } ->
    read_into m m.w_val (write_slot m ~taint:(tainted m src) dst) src
  | Rdcycle { dst } ->
    let k = write_slot m ~taint:false dst in
    (* the natural reading is the clock at bundle issue — the batched
       cycles of all previous bundles must be folded in first *)
    Machine.flush_acc m;
    let now = !(m.clock) in
    Regfile.set m.w_val k
      (match m.rdcycle_hook with
      | Some f -> f now
      | None -> now)
  | Load { w; unsigned; dst; base; off; spec; id; pc; hoisted } ->
    let addr = Int64.to_int (eval m base) + off in
    let size = Interp.width_bytes w in
    let mem_size = Gb_riscv.Mem.size m.mem in
    touch_cache m ~pc ~addr ~size ~write:false;
    (match spec with
    | Some tag -> Mcb.alloc m.mcb ~tag ~addr ~size
    | None -> ());
    let speculative = hoisted || Option.is_some spec in
    (match m.audit with
    | Some a when addr >= 0 ->
      Gb_cache.Audit.run_access a ~id ~pc ~addr ~size ~write:false ~speculative
        ~dependent:(tainted m base)
    | Some _ | None -> ());
    let k = write_slot m ~taint:(speculative || tainted m base) dst in
    (* Deferred-fault semantics for speculative loads; the bound check is
       overflow-proof ([addr + size] wraps negative near [max_int], which
       would let a speculatively computed address dodge the fault
       path). *)
    if addr < 0 || size > mem_size - addr then Regfile.set m.w_val k 0L
    else Interp.load_into m.mem ~addr w ~unsigned m.w_val k
  | Store { w; src; base; off; id; pc } ->
    let addr = Int64.to_int (eval m base) + off in
    let size = Interp.width_bytes w in
    read_into m m.operands 0 src;
    Interp.store_from m.mem ~addr w m.operands 0;
    touch_cache m ~pc ~addr ~size ~write:true;
    Mcb.store_probe m.mcb ~pc ~addr ~size;
    (match m.audit with
    | Some a when addr >= 0 ->
      Gb_cache.Audit.run_access a ~id ~pc ~addr ~size ~write:true
        ~speculative:false ~dependent:false
    | Some _ | None -> ())
  | Branch { cond; a; b; stub } ->
    read_into m m.operands 0 a;
    read_into m m.operands 1 b;
    if Interp.cond cond m.operands 0 m.operands 1 then take m stub Side_exit
  | Chk { tag; stub } -> if Mcb.check m.mcb ~tag then take m stub Rollback
  | Cflush { base; off; id; pc } ->
    let addr = Int64.to_int (eval m base) + off in
    if addr >= 0 then begin
      Gb_cache.Hierarchy.flush_line m.hier addr;
      match m.audit with
      | Some a -> Gb_cache.Audit.run_flush a ~id ~pc ~addr
      | None -> ()
    end
  | Exit { stub } -> take m stub Fallthrough

let rec apply_commits (m : Machine.t) commits =
  match commits with
  | [] -> ()
  | (dst, src) :: rest ->
    if dst = 0 || dst >= Vinsn.guest_regs then
      error "stub commit to non-guest register %d" dst;
    read_into m m.regs dst src;
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
    let region = trace.entry_pc in
    (match kind with
    | Rollback ->
      Gb_obs.Sink.event m.obs ~pc:stub.target_pc ~region Gb_obs.Event.Rollback
    | Side_exit | Fallthrough -> ());
    (* how deep into the trace the run got before leaving *)
    Gb_obs.Sink.observe m.obs "vliw.exit_bundle" (float_of_int (bundle_idx + 1))
  end;
  let r = m.exit_scratch in
  r.next_pc <- stub.target_pc;
  r.kind <- kind;
  r

(* Execute one pass over a trace. The mutable per-cycle state lives in
   the machine's scratch fields; register writes are buffered and applied
   at end of cycle to get the parallel-read semantics right. *)
let run (m : Machine.t) (trace : Vinsn.trace) =
  let open Vinsn in
  if Regfile.length m.regs < trace.n_regs then
    error "trace needs %d registers, machine has %d" trace.n_regs
      (Regfile.length m.regs);
  let width =
    if Array.length trace.bundles = 0 then 1
    else Array.length trace.bundles.(0)
  in
  let attrib = Gb_obs.Sink.attrib m.obs in
  (* mitigation-inserted fences mark this translation's Fence/Nop slots
     as mitigation cost; a trace the mitigation never touched charges its
     fences (the guest's own) to committed work *)
  let mitigated = trace.meta.fences_inserted > 0 in
  let cut = trace.meta.cut_protects > 0 in
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
  Machine.ensure_write_capacity m (width * 2);
  (* an active sink stamps events (cache misses, MCB conflicts) with the
     clock mid-run, and an audit diffs shadow state per run: both need
     the pre-batching per-bundle flush; otherwise the accumulators are
     invisible until the next flush point and bundle advance allocates
     nothing *)
  m.eager <- Gb_obs.Sink.is_active m.obs || m.taint_on || Option.is_some attrib;
  let n = Array.length trace.bundles in
  let rec cycle i =
    if i >= n then error "trace fell off the end without an Exit op"
    else begin
      let bundle = trace.bundles.(i) in
      m.n_writes <- 0;
      m.stall <- 0;
      m.taken_stub <- -1;
      for k = 0 to Array.length bundle - 1 do
        exec_op m bundle.(k)
      done;
      for k = 0 to m.n_writes - 1 do
        let dst = m.w_dst.(k) in
        Regfile.move m.regs dst m.w_val k;
        if m.taint_on then m.taint.(dst) <- m.w_taint.(k)
      done;
      m.acc_bundles <- m.acc_bundles + 1;
      m.acc_stalls <- m.acc_stalls + m.stall;
      m.acc_cycles <- m.acc_cycles + 1 + m.stall;
      if m.eager then Machine.flush_acc m;
      (* the cache-miss part of this advance was attributed op-by-op in
         touch_cache; the one issue cycle splits across the slots here *)
      (match attrib with
      | Some a ->
        attribute_bundle a ~mitigated ~cut ~width ~pc:trace.entry_pc bundle
      | None -> ());
      if m.taken_stub >= 0 then
        finish m trace ~width ~bundle_idx:i m.taken_stub m.taken_kind
      else cycle (i + 1)
    end
  in
  try cycle 0 with e -> Machine.flush_acc m; raise e
