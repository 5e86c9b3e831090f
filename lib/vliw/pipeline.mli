(** In-order execution of translated traces.

    One bundle issues per cycle; cache misses stall the whole pipeline for
    the miss penalty (stall-on-miss); any exit (side exit, MCB rollback or
    trace end) runs the exit stub's compensation moves and pays the
    pipeline-refill penalty.

    Within a bundle all operands read the register state from the start of
    the cycle (parallel semantics); the instruction scheduler guarantees at
    least one cycle between a producer and its consumers, and the code
    generator frees a hidden register only after its last read. The
    bundles the engine emits decode {e direct}: their ops run in slot
    order and write the register file in place. A bundle where slot
    order could differ from parallel reads decodes {e staged} instead:
    its writes go to a write buffer committed at the end of the cycle
    (see {!decode}).

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
    (a no-op when already decoded): one step closure per bundle, which
    runs closures specialised on each op's kind and operand forms in
    slot order. Nop and Fence slots, and ALU ops and moves into x0, are
    dropped; immediate operands are resolved; a duplicate write decodes
    to an op that raises {!Machine_error} when it runs.

    A bundle decodes direct, its ops writing the register file in place,
    when running it in slot order cannot be told from parallel reads and
    an end-of-cycle commit, exceptions included: no op reads a register
    an earlier op of the bundle writes (or one at or above
    [trace.n_regs]), no register is written twice, every register
    written is below [trace.n_regs], and no op that can raise follows a
    write: a store, an rdcycle or a Chk (whose hooks may raise), or a
    control op of a bundle with two or more. Any other bundle decodes
    staged: its ops write static slots of the machine's write buffer,
    and its step ends with their commit.

    The result is a pure function of [trace.bundles] and [trace.n_regs]
    and captures no machine and no stub record, so a translation is
    decoded once however often it is installed. The engine decodes
    every translation it makes; a trace built by hand must be decoded
    before {!run}. *)

val decoded_ops : Vinsn.trace -> int
(** The number of decoded ops over all bundles (the ops {!decode} did
    not drop); 0 for a trace not yet decoded. *)

val staged_bundles : Vinsn.trace -> int
(** The number of bundles {!decode} staged; 0 for a trace not yet
    decoded. The engine's code decodes with none. *)

val run : Machine.t -> Vinsn.trace -> exit_info
(** Execute one pass over the trace's decoded form (raising
    {!Machine_error} if it was never {!decode}d), advancing the machine
    clock, and return the taken exit. The exit stub's compensation moves
    run and the leakage audit sees a complete [begin_run]/[end_run]
    window per pass. Every exit returns to the caller, the processor's
    dispatcher, which costs no simulated cycles. *)
