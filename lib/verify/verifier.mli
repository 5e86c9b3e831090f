(** Post-scheduling translation verifier.

    A static taint dataflow over the emitted VLIW bundles of one
    translation — exit stubs, hidden registers and cross-bundle dataflow
    included — that re-derives "speculative load" from the {e schedule}
    itself rather than trusting the IR annotations: a load is speculative
    when the schedule placed it above the resolution of a guarding exit
    (an exit-like op with a smaller DFG id in a later-or-equal bundle),
    or above a potentially-aliasing MCB-checked store. Taint then
    propagates through register dataflow exactly as the pipeline's
    runtime taint does (sticky per run, buffered write-back, [x0] never
    tainted), so a memory op the verifier leaves clean can never produce
    a dependent transient line in the leakage audit.

    The verifier is independent of [Gb_core.Poison], which analyses the
    pre-scheduling DFG: a scheduler or code-generator bug that reorders
    ops behind Poison's back is exactly what this pass exists to catch
    (Venkman-style: enforce the property on every emitted code unit). *)

type kind =
  | Tainted_load
      (** a load whose address operand carries taint while the op can
          still execute transiently (an unresolved earlier exit exists in
          its bundle or later) — the Spectre leak condition *)
  | Tainted_store
      (** a store whose address or value operand is still inside a
          guard's live window at execution — speculative data written
          architecturally *)
  | Transient_store
      (** a store or cache flush placed where a taken earlier exit would
          make it transient; stores are irreversible, so the scheduler
          must pin them *)
  | Tainted_commit
      (** an exit stub commits a register whose value is still guarded by
          an exit that resolves strictly later than the stub's bundle *)
  | Unguarded_bypass
      (** a load scheduled above a potentially-aliasing store without an
          MCB tag, or whose Chk does not resolve after the bypassed
          store *)
  | Unrealized_cut
      (** ({!check_cut} only) a repair in the min-cut plan has no
          witness in the emitted schedule: the protected load is missing
          or still schedule-speculative, a mask repair has no identity
          AND in an earlier bundle, or a fence repair has no barrier *)
  | Residual_flow
      (** ({!check_cut} only) sticky taint seeded by a load the schedule
          still speculates reaches a speculative load address or a
          transient store/flush operand — a source→transmitter path the
          cut failed to sever *)

val kind_name : kind -> string

type violation = {
  v_kind : kind;
  v_pc : int;  (** guest pc of the offending op (stub target pc for commits) *)
  v_id : int;  (** DFG id of the op (exit id for commits) *)
  v_bundle : int;  (** bundle (cycle) index in the schedule *)
  v_origins : int list;
      (** guest pcs of the speculative loads the taint flowed from
          (sorted; empty for taint-free kinds) *)
}

type report = {
  violations : violation list;  (** schedule order: (bundle, id) *)
  sched_spec_loads : int;
      (** loads the schedule itself proves speculative (above an
          unresolved exit or a bypassed store) *)
  flag_spec_loads : int;
      (** loads carrying a [hoisted] / MCB-tag flag from the IR *)
  mem_ops : int;  (** loads + stores + flushes examined *)
  bundles : int;
}

val verify : Gb_vliw.Vinsn.trace -> report
(** Pure; never mutates the trace. Chain links are ignored (verification
    is per-translation). *)

val check_cut :
  Gb_vliw.Vinsn.trace -> plan:Gb_core.Leakcut.plan -> violation list
(** Cut-soundness pass for [Min_cut] translations (Venkman-style: the
    property is re-proved on every emitted unit). Re-derives speculation
    from the schedule alone and checks two obligations against the
    plan: every repair — realized or not, so a deliberately-skipped one
    is caught — has a structural witness ([Unrealized_cut] otherwise),
    and an independent sticky taint pass seeded only by loads the
    schedule still speculates reaches no transmitter ([Residual_flow]
    otherwise). Pure; returns violations in schedule order. *)

val ok : report -> bool

val violation_pcs : report -> int list
(** Distinct guest pcs with at least one violation, sorted. *)
