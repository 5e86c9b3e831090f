type config = {
  n_hidden : int;
  mcb_entries : int;
  exit_penalty : int;
  chain : bool;  (* vestigial: must be true, see machine.mli *)
}

let default_config =
  { n_hidden = 96; mcb_entries = 8; exit_penalty = 4; chain = true }

(* Native-int counters: an [int64] field here would allocate a fresh box
   on every increment, and these are bumped per trace run / per bundle
   flush. 63 bits cannot realistically overflow on counted events. *)
type stats = {
  mutable bundles : int;
  mutable trace_runs : int;
  mutable side_exits : int;
  mutable rollbacks : int;
  mutable fallthroughs : int;
  mutable stall_cycles : int;
  mutable guest_insns : int;
}

type t = {
  cfg : config;
  regs : Gb_riscv.Regfile.t;
  mem : Gb_riscv.Mem.t;
  hier : Gb_cache.Hierarchy.t;
  clock : int64 ref;
  mcb : Mcb.t;
  stats : stats;
  obs : Gb_obs.Sink.t;
  audit : Gb_cache.Audit.t option;
  mutable rdcycle_hook : (int64 -> int64) option;
  (* Scratch state owned by Pipeline.run, hoisted here so bundle
     execution never allocates: the parallel-write buffer is two
     parallel arrays indexed by the static write slots decode assigns
     (a tuple array would box one pair per register write), its values
     held unboxed in a register file; [operands] stages an op's
     immediate operands for the shared ALU/branch/store helpers; the
     taken exit is a -1-sentinel index plus kind (an [option ref] would
     box per bundle); [taint] is the per-run register taint map, reset
     by fill only when an audit is attached ([taint_on]). *)
  mutable w_val : Gb_riscv.Regfile.t;
  mutable w_taint : bool array;
  operands : Gb_riscv.Regfile.t;
  mutable stall : int;
  mutable taken_stub : int;
  mutable taken_kind : Vinsn.exit_kind;
  taint : bool array;
  mutable taint_on : bool;
  (* Batched per-bundle counters: native-int accumulators folded into
     the [int64] stats/clock before anything can observe them (Rdcycle,
     trace exit, any instrumented run). Each is "always 0 outside
     Pipeline.run" — the flush discipline that keeps batched and
     eager execution bit-identical. *)
  mutable acc_bundles : int;
  mutable acc_stalls : int;
  mutable acc_cycles : int;
  mutable eager : bool;
      (* true when an observer (active sink, audit) could read the
         clock mid-run: bundle counters are then flushed every bundle,
         exactly the pre-batching behavior *)
  exit_scratch : Vinsn.exit_info;
      (* the one exit record every pipeline pass refills and returns *)
}

let create ?(cfg = default_config) ~mem ~hier ~clock ?regs
    ?(obs = Gb_obs.Sink.noop) ?audit () =
  if not cfg.chain then
    invalid_arg "Machine.create: config.chain must be true (trace chaining was removed)";
  let regs =
    match regs with
    | Some r ->
      assert (Gb_riscv.Regfile.length r >= Vinsn.guest_regs + cfg.n_hidden);
      r
    | None -> Gb_riscv.Regfile.create (Vinsn.guest_regs + cfg.n_hidden)
  in
  let mcb = Mcb.create ~obs ~entries:cfg.mcb_entries () in
  let stats =
    { bundles = 0; trace_runs = 0; side_exits = 0; rollbacks = 0;
      fallthroughs = 0; stall_cycles = 0; guest_insns = 0 }
  in
  if Gb_obs.Sink.is_active obs then begin
    let mcb_stats = Mcb.stats mcb in
    Gb_obs.Sink.add_counters obs (fun () ->
        [ ("vliw.trace_runs", stats.trace_runs);
          ("vliw.side_exits", stats.side_exits);
          ("vliw.rollbacks", stats.rollbacks);
          ("vliw.fallthroughs", stats.fallthroughs);
          ("vliw.mcb_conflicts", mcb_stats.Mcb.conflicts) ])
  end;
  {
    cfg;
    regs;
    mem;
    hier;
    clock;
    mcb;
    stats;
    obs;
    audit;
    rdcycle_hook = None;
    w_val = Gb_riscv.Regfile.create 32;
    w_taint = Array.make 32 false;
    operands = Gb_riscv.Regfile.create 2;
    stall = 0;
    taken_stub = -1;
    taken_kind = Vinsn.Fallthrough;
    taint = Array.make (Gb_riscv.Regfile.length regs) false;
    taint_on = false;
    acc_bundles = 0;
    acc_stalls = 0;
    acc_cycles = 0;
    eager = true;
    exit_scratch =
      { Vinsn.next_pc = 0; kind = Vinsn.Fallthrough };
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
  if Array.length t.w_taint < n then begin
    t.w_val <- Gb_riscv.Regfile.create n;
    t.w_taint <- Array.make n false
  end
