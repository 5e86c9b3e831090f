(** Differential execution oracle.

    Runs a guest program twice — once on a standalone reference
    interpreter over its own copy of memory, once on the full DBT
    processor — and compares architectural state at every trace exit and
    at program end. Any disagreement in committed registers, committed
    memory, the output buffer or the exit code is a {!divergence},
    attributed to the guest pc, code-cache region and translation tier
    where it was first observed.

    {2 Synchronisation}

    At each trace exit the reference is advanced until its pc equals the
    exit's [next_pc] {e and} its register file matches the shared one
    (instruction counts cannot drive the lockstep: the machine's
    [guest_insns] is a full-pass upper estimate on side exits). Rollback
    exits synchronise immediately — the DBT state reverted to the
    previous sync point, where the reference already is.

    {2 Timing}

    Guest programs read [rdcycle], and reference timing necessarily
    differs from DBT timing, so timing is made a run {e input} rather
    than compared state: the oracle records every rdcycle result the DBT
    run observes (committed rdcycles execute in guest program order on
    both tiers — they are pinned barrier nodes in the DFG) and replays
    the recorded stream into the reference interpreter. This is what
    lets timing-dependent attack workloads pass the zero-divergence
    gate.

    {2 Fault injection}

    When an {!Gb_system.Inject} controller is armed (explicitly or via
    [GHOSTBUSTERS_INJECT]), every sync point where the two sides agree
    marks all faults injected so far as recovered; the [clean] predicate
    then demands [injected = recovered]. Only the oracle counts
    recovery: an active sink gets [fault.recovered] (registered at zero)
    from an oracle run, never from a plain {!Gb_system.Processor} run.
    Under the unsound
    [mcb-suppress] kind the oracle is instead expected to {e detect} the
    divergence (sensitivity control). *)

type divergence = {
  d_pc : int;  (** guest pc where the mismatch was observed *)
  d_region : int option;  (** code-cache region (entry pc), when known *)
  d_tier : string;  (** ["trace"], ["block"], ["interp"] or ["end"] *)
  d_kind : string;
      (** ["reg"], ["mem"], ["output"], ["exit"], ["sync"] or ["trap"] *)
  d_detail : string;  (** human-readable specifics *)
}

type report = {
  divergence : divergence option;  (** first divergence, if any *)
  syncs : int;  (** trace-exit synchronisation points compared *)
  injected : int;  (** faults fired by the controller *)
  recovered : int;  (** faults proven recovered at a later agreement *)
  ref_insns : int64;  (** instructions the reference executed *)
  dbt_result : Gb_system.Processor.result option;
      (** [None] when the DBT run trapped *)
  trap : string option;  (** DBT-side trap message, if it trapped *)
}

val clean : report -> bool
(** No divergence, no trap, and every injected fault recovered. *)

val pp_divergence : Format.formatter -> divergence -> unit

val run :
  ?config:Gb_system.Processor.config ->
  ?obs:Gb_obs.Sink.t ->
  ?inject:Gb_system.Inject.spec ->
  ?seed:int64 ->
  ?full_compare_every:int ->
  Gb_riscv.Asm.program ->
  report
(** Differentially execute one program. [inject] arms a fault controller
    with [seed] (default 1) on the DBT side only; when omitted, a
    controller may still be armed from [GHOSTBUSTERS_INJECT] by
    {!Gb_system.Processor.create} — the report accounts for it either
    way. Dirty reference pages are compared at every sync; a
    full-memory compare runs every [full_compare_every] syncs (default
    512) and always at program end. [obs] receives [diff.divergences]
    and the controller's [fault.*] counters. *)

val run_kernel :
  ?config:Gb_system.Processor.config ->
  ?obs:Gb_obs.Sink.t ->
  ?inject:Gb_system.Inject.spec ->
  ?seed:int64 ->
  ?full_compare_every:int ->
  Gb_kernelc.Ast.program ->
  report
(** {!run} over an assembled kernelc program. *)
