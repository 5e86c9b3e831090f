(** Speculative-leakage audit: differential cache shadowing.

    An audit owns a {e shadow} copy of the L1D that is fed only by
    architecturally-committed accesses — the interpreter path commits
    directly, while trace-run accesses are buffered and replayed at the
    run's exit according to the commit boundary (a buffered op whose DFG
    id precedes the taken exit's id is architectural; anything after it
    executed transiently). At every run boundary the transient accesses
    are diffed against the shadow: a line present in the real cache but
    absent from the shadow is a {e transient side-effect record},
    attributed to the guest pc, region and hoisted load that caused it.

    Records are cross-correlated with the poison/mitigation verdicts the
    engine reports ({!note_flagged} / {!note_constrained}) to classify
    every speculative load pc:

    - {b true positive}: flagged, and at least one transient line whose
      address depended on speculatively loaded data — it would have (or
      did) leak;
    - {b false negative}: unflagged, yet left dependent transient cache
      state — a real detector miss;
    - {b over-mitigation}: flagged/constrained but never perturbed the
      cache with dependent data.

    Note that precision is ground-truth-measurable only in modes that let
    flagged loads actually run transiently (the engine runs the poisoning
    analysis report-only under [Unsafe] when an audit is attached); under
    a constraining mode flagged loads cannot perturb the cache by
    construction, so they land in the over-mitigation bucket and the
    audit degenerates to checking the false-negative side. *)

type t

val create : ?obs:Gb_obs.Sink.t -> real:Cache.t -> unit -> t
(** The shadow cache copies [real]'s geometry (and keeps the noop
    sink). [obs] reads the [audit.transient_lines] and
    [audit.dependent_transient_lines] counters, the [transient_lines] and
    [dependent_lines] of {!summary}, and receives
    {!Gb_obs.Event.Transient_line} events. *)

(** {2 Architectural (interpreter) path} *)

val commit_access : t -> addr:int -> size:int -> write:bool -> unit
(** Mirror an architecturally-committed access into the shadow. *)

val commit_flush : t -> addr:int -> unit

(** {2 Trace-run path}

    The VLIW pipeline buffers every memory op it executes, tagged with
    its DFG node id (original guest program order) and a taint verdict,
    then closes the run with the taken exit's id. *)

val begin_run : t -> region:int -> unit

val run_access :
  t ->
  id:int ->
  pc:int ->
  addr:int ->
  size:int ->
  write:bool ->
  speculative:bool ->
  dependent:bool ->
  unit
(** [speculative] marks a hoisted (branch- or MCB-speculative) load;
    [dependent] marks a load whose address was derived from speculatively
    loaded data (the Spectre leak condition, computed by the pipeline's
    taint tracking). *)

val run_flush : t -> id:int -> pc:int -> addr:int -> unit

val end_run : t -> exit_id:int -> unit
(** Close the run: buffered ops with [id < exit_id] replay into the
    shadow in program order; the rest are transient and are diffed
    against the shadow, emitting one record per divergent line. *)

(** {2 Verdicts from the engine} *)

val note_spec_load : t -> pc:int -> unit
(** A load at [pc] was speculatively hoisted in some trace. *)

val note_flagged : t -> pc:int -> unit
(** The poisoning analysis flagged the load at [pc] as a Spectre
    pattern. *)

val note_constrained : t -> pc:int -> unit
(** The mitigation actually constrained the load at [pc]. *)

val flagged_pc_list : t -> int list
(** Distinct pcs noted via {!note_flagged}, sorted — the detector's
    positives, used as ground truth when scoring the static gadget
    scanner. *)

val dependent_pcs : t -> int list
(** Distinct pcs that left at least one {e dependent} transient line
    (address derived from speculatively loaded data), sorted — the
    runtime evidence the static translation verifier must cover
    (its false-negative check). *)

(** {2 Results} *)

type summary = {
  spec_loads : int;  (** distinct speculative-load pcs observed *)
  flagged : int;  (** distinct pcs flagged by the poisoning analysis *)
  constrained : int;  (** distinct pcs actually constrained *)
  transient_lines : int;  (** transient side-effect records (all runs) *)
  dependent_lines : int;  (** records with a speculative-data-derived address *)
  transient_pcs : int;  (** distinct pcs with at least one record *)
  true_positives : int;
  false_negatives : int;
  over_mitigations : int;
  precision : float;  (** tp / (tp + over_mitigations); 1.0 when nothing flagged *)
  recall : float;  (** tp / (tp + fn); 1.0 when nothing leaked *)
  over_fencing_rate : float;  (** over_mitigations / flagged; 0.0 when none *)
  sets_touched : int list;  (** distinct cache sets transiently touched, sorted *)
  shadow_divergence : int;  (** symmetric diff of real vs shadow at summary time *)
}

val summary : t -> summary
(** Classify and aggregate; safe to call repeatedly. *)

val publish : t -> summary
(** {!summary}, additionally written into the sink as [audit.*] gauges so
    the classification appears in metrics snapshots. *)

val summary_to_json : summary -> Gb_util.Json.t

val pp_summary : Format.formatter -> summary -> unit
(** Human-readable audit table (used by [ghostbusters --audit]). *)
