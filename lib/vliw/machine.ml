type config = {
  n_hidden : int;
  mcb_entries : int;
  exit_penalty : int;
  chain : bool;
  chain_fuel : int;
}

let default_config =
  { n_hidden = 96; mcb_entries = 8; exit_penalty = 4; chain = true;
    chain_fuel = 4096 }

(* Native-int counters: an [int64] field here would allocate a fresh box
   on every increment, and these are bumped per trace run / per bundle
   flush. 63 bits cannot realistically overflow on counted events. *)
type stats = {
  mutable bundles : int;
  mutable trace_runs : int;
  mutable side_exits : int;
  mutable rollbacks : int;
  mutable stall_cycles : int;
  mutable chain_follows : int;
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
  mutable on_chain : Vinsn.exit_info -> Vinsn.trace option;
  mutable rdcycle_hook : (int64 -> int64) option;
  (* Scratch state owned by Pipeline.run_one, hoisted here so bundle
     execution never allocates: the parallel-write buffer is three
     parallel arrays (a tuple array would box one pair per register
     write), reset by [n_writes] rather than refilled, its values held
     unboxed in a register file; [operands] stages an op's source
     operands for the shared ALU/branch/store helpers; the taken exit is
     a -1-sentinel index plus kind (an [option ref] would box per
     bundle); [taint] is the per-run register taint map, reset by fill
     only when an audit is attached ([taint_on]). *)
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
  (* Batched per-bundle counters: native-int accumulators folded into
     the [int64] stats/clock before anything can observe them (Rdcycle,
     trace exit, any instrumented run). Each is "always 0 outside
     Pipeline.run_one" — the flush discipline that keeps batched and
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
  let regs =
    match regs with
    | Some r ->
      assert (Gb_riscv.Regfile.length r >= Vinsn.guest_regs + cfg.n_hidden);
      r
    | None -> Gb_riscv.Regfile.create (Vinsn.guest_regs + cfg.n_hidden)
  in
  {
    cfg;
    regs;
    mem;
    hier;
    clock;
    mcb = Mcb.create ~obs ~entries:cfg.mcb_entries ();
    stats =
      { bundles = 0; trace_runs = 0; side_exits = 0; rollbacks = 0;
        stall_cycles = 0; chain_follows = 0; guest_insns = 0 };
    obs;
    audit;
    on_chain = (fun _ -> None);
    rdcycle_hook = None;
    w_dst = Array.make 32 0;
    w_val = Gb_riscv.Regfile.create 32;
    w_taint = Array.make 32 false;
    n_writes = 0;
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
      { Vinsn.next_pc = 0; kind = Vinsn.Fallthrough; exit_entry = 0;
        taken_stub = -1 };
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
