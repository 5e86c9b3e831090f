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
}
(** Re-exported from {!Vinsn} (defined there so {!Machine} can own the
    scratch exit record without a dependency cycle). *)

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
    [trace.bundles] and captures no machine and no stub record, so a
    translation is decoded once however often it is installed. The
    engine decodes every translation it makes; a trace built by hand
    must be decoded before {!run}. *)

val decoded_ops : Vinsn.trace -> int
(** The number of decoded ops over all bundles (the ops {!decode} did
    not drop); 0 for a trace not yet decoded. *)

val run : Machine.t -> Vinsn.trace -> exit_info
(** Execute one pass over the trace's decoded form (raising
    {!Machine_error} if it was never {!decode}d), advancing the machine
    clock, and return the taken exit. The exit stub's compensation moves
    run and the leakage audit sees a complete [begin_run]/[end_run]
    window per pass. Every exit returns to the caller, the processor's
    dispatcher, which costs no simulated cycles. *)
