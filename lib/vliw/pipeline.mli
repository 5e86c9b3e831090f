(** In-order execution of translated traces.

    One bundle issues per cycle; cache misses stall the whole pipeline for
    the miss penalty (stall-on-miss); any exit (side exit, MCB rollback or
    trace end) runs the exit stub's compensation moves and pays the
    pipeline-refill penalty.

    Within a bundle all operands read the register state from the start of
    the cycle (parallel semantics); the instruction scheduler guarantees at
    least one cycle between a producer and its consumers.

    A load that faults (out-of-range address) is by construction
    speculative here — architectural loads that fault are executed by the
    interpreter path — so the fault is deferred in the hardware style of
    the paper: the load returns 0 and the program state is untouched. The
    cache is still probed when the address is non-negative, which is
    exactly the micro-architectural side effect Spectre exploits. Stores
    are always architectural and propagate {!Gb_riscv.Mem.Fault}. *)

type exit_kind = Vinsn.exit_kind = Fallthrough | Side_exit | Rollback

type exit_info = Vinsn.exit_info = {
  mutable next_pc : int;
  mutable kind : exit_kind;
  mutable exit_entry : int;
  mutable taken_stub : int;
}
(** Re-exported from {!Vinsn} (defined there so {!Machine} can carry the
    chain callback without a dependency cycle); existing call sites using
    [Pipeline.Side_exit] / [info.next_pc] are unaffected. *)

exception Machine_error of string
(** Ill-formed trace detected at run time (two control operations in a
    bundle, duplicate register writes, a trace never decoded, ...) —
    indicates a code generator bug, never a guest error. *)

val decode : Vinsn.trace -> unit
(** Fill [trace.decoded] with the executable form of its bundles, once
    (a no-op when already decoded): per bundle, an array of closures
    specialised on each op's kind and operand forms, plus the static
    write-buffer slot of every register the bundle writes. Nop and Fence
    slots, and ALU ops and moves into x0, are dropped; immediate operands
    are resolved; a duplicate write decodes to an op that raises
    {!Machine_error} when it runs. The result is a pure function of
    [trace.bundles], captures no machine and no stub record, and is
    shared by every copy of the trace record, so a translation is
    decoded once however often it is installed. The engine decodes every
    translation it makes; a trace built by hand must be decoded before
    {!run}. *)

val decoded_ops : Vinsn.trace -> int
(** The number of decoded ops over all bundles (the ops {!decode} did
    not drop); 0 for a trace not yet decoded. *)

val run : Machine.t -> Vinsn.trace -> exit_info
(** Execute the trace's decoded form (raising {!Machine_error} if it was
    never {!decode}d), advancing the machine clock, and — when
    [m.cfg.chain] is set — keep going: if the taken exit stub carries a
    chain link patched by the code cache, consult the [m.on_chain]
    resolver (which does the dispatcher's accounting for the
    intermediate {!exit_info}) and transfer directly into whatever
    translation it returns, for up to [m.cfg.chain_fuel] transfers. The
    returned {!exit_info} describes only the final, unchained exit.
    Rollback exits are never chained. Chained transfers cost no
    simulated cycles — the dispatcher is free in the cost model — so
    cycle counts are identical with chaining on or off.

    Each chained trace pass is a full architectural commit: the stub's
    compensation moves run and the leakage audit sees a complete
    [begin_run]/[end_run] window per pass, so commit-boundary/exit-id
    logic is unaffected by chaining. *)

val run_one : Machine.t -> Vinsn.trace -> exit_info
(** Execute exactly one pass over the trace, ignoring chain links. *)
