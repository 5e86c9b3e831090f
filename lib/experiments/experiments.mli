(** The paper's evaluation (Section V), experiment by experiment. Each
    function returns structured data; the benchmark harness and the CLI
    render it. The experiment ids follow DESIGN.md. *)

val default_secret : string

(** Cycle counts of one workload under every mitigation mode. *)
type mode_cycles = {
  w_name : string;
  unsafe : int64;
  fine_grained : int64;
  fence : int64;
  min_cut : int64;
  no_spec : int64;
  patterns : int;  (** Spectre patterns detected under fine-grained *)
  unsafe_audit : Gb_cache.Audit.summary option;
      (** leakage-audit classification of the unsafe run (audited runs only) *)
  fine_audit : Gb_cache.Audit.summary option;
      (** same, for the fine-grained run *)
  causes : (string * (string * float) list) list;
      (** per mode name, the {!Gb_obs.Attrib.cause_shares} of that mode's
          run: every cause, as a share of total cycles. [[]] when the
          measurement ran without attribution. *)
}

val slowdown : mode_cycles -> mode:Gb_core.Mitigation.mode -> float
(** cycles(mode) / cycles(unsafe). *)

val run_workload :
  ?audit:bool ->
  ?obs:Gb_obs.Sink.t ->
  Gb_core.Mitigation.mode ->
  Gb_kernelc.Ast.program ->
  Gb_system.Processor.result

val measure_program :
  ?audit:bool ->
  ?attrib:bool ->
  name:string ->
  Gb_kernelc.Ast.program ->
  mode_cycles
(** [audit] (default [false]) attaches the leakage audit to every mode's
    run and captures the Unsafe and Fine_grained summaries. The audit is a
    pure observer, so the cycle counts are identical either way.
    [attrib] (default [false]) attaches a fresh cycle-attribution ledger
    to each mode's run and fills {!mode_cycles.causes}; the conservation
    invariant is asserted inside each run. *)

(** E1 — proof of concept: per variant and mode, how much of the secret
    leaked. *)
type poc_row = {
  variant : string;
  mode : Gb_core.Mitigation.mode;
  outcome : Gb_attack.Runner.outcome;
}

val e1_poc_matrix :
  ?secret:string ->
  ?audit:bool ->
  ?seed:int64 ->
  ?cc_capacity:int ->
  ?modes:Gb_core.Mitigation.mode list ->
  unit ->
  poc_row list
(** [audit] attaches the leakage audit to every run; [seed] (default [1L])
    pins the observability sink's reservoir RNG so audited runs are
    reproducible bit-for-bit. [cc_capacity], when given, caps the code
    cache at that many bundles — the capacity-constrained re-check that
    the leakage verdicts survive eviction churn. [modes] (default
    {!Gb_core.Mitigation.all_modes}) restricts the matrix to the listed
    modes (the harnesses' [--modes] filter). *)

val poc_verdicts_equal : poc_row list -> poc_row list -> bool
(** E8's churn check: the same leak verdicts and audit false-negative
    counts, row for row (the capacity-constrained E1 re-run against the
    default one). *)

val e2_figure4 :
  ?audit:bool -> ?attrib:bool -> unit -> mode_cycles list
(** One row per Figure-4 application: the 12 Polybench kernels plus the
    two Spectre proof-of-concept programs. [attrib] defaults to [true]:
    every E2 run carries the cycle-attribution ledger, so the per-cause
    shares land in the perf manifest and the conservation invariant is
    exercised on every workload x mode. *)

val e3_fence_rows : mode_cycles list -> (string * float * int) list
(** Per workload: fence slowdown and pattern count (derived from E2 data). *)

val e4_matmul_ablation : ?audit:bool -> unit -> mode_cycles

val e5_hot_candidates : int list

val e5_hit_miss : unit -> int array
(** Probe latencies of the timing harness's final flush+reload round
    (bimodal: the re-touched candidates hit, everything else misses). *)

val e7_translation_channel :
  ?secret:string ->
  unit ->
  (Gb_core.Mitigation.mode * Gb_attack.Translation_channel.outcome) list
(** E7 (extension; the paper's future-work concern made executable): the
    translation-decision side channel, per mitigation mode. Every mode
    leaks — the countermeasure targets speculative loads, not the
    profile-guided translation decisions themselves. *)

(** E8 (extension) — trace chaining: dispatcher exits per 1k guest
    instructions with chaining off/on, plus a tiny-cache run checking
    that eviction churn preserves architectural results. *)
type chain_row = {
  c_name : string;
  c_guest_insns : int64;
  c_exits_nochain : int64;
  c_exits_chain : int64;
  c_chain_follows : int64;
  c_tiny_exits : int64;  (** dispatch exits with chaining + tiny cache *)
  c_tiny_evictions : int;
  c_cycles_equal : bool;
      (** chaining must not change the simulated cycle count *)
  c_arch_equal : bool;
      (** tiny-cache run produced the same architectural result *)
}

val per_1k : int64 -> int64 -> float
(** [per_1k exits insns] — dispatcher exits per 1k guest instructions. *)

val chain_reduction : chain_row -> float
(** Reduction factor of dispatcher exits per 1k guest instructions
    (no-chain / chain); [infinity] when chaining removed every exit. *)

val e8_tiny_capacity : int
(** Code-cache budget (in bundles) of E8's eviction-churn configuration. *)

val e8_chaining : ?mode:Gb_core.Mitigation.mode -> unit -> chain_row list
(** One row per Polybench kernel (default mode [Unsafe], where traces are
    longest-lived and chaining matters most). *)

(** E9 (extension) — static verification cross-check: the install-time
    translation verifier and the guest gadget scanner scored against the
    runtime leakage audit. *)

(** One verified run: the verifier attached report-only (enforcement
    would fence away the very leaks the audit must observe). *)
type verify_row = {
  v_name : string;
  v_mode : Gb_core.Mitigation.mode;
  v_checked : int;  (** translations the verifier examined *)
  v_violations : int;
  v_rejections : int;  (** always 0 report-only *)
  v_violation_pcs : int list;  (** distinct violating guest pcs, sorted *)
  v_dependent_pcs : int list;
      (** pcs the audit saw leave dependent transient lines ([] when the
          run was not audited) *)
  v_uncovered : int list;
      (** audited dependent pcs the verifier did NOT flag — a static
          false negative; must be empty *)
}

type scan_row = {
  s_name : string;
  s_report : Gb_verify.Scanner.report;
  s_flagged : int list;
      (** runtime detector's flagged pcs from the audited Unsafe run (the
          scanner's ground truth) *)
  s_score : Gb_verify.Scanner.score;
}

type e9 = {
  e9_attacks : verify_row list;
      (** both Spectre variants under every mode, audited *)
  e9_workloads : verify_row list;
      (** every Polybench kernel under the mitigated modes, where the
          verifier must stay silent *)
  e9_scans : scan_row list;
}

val e9_workload_modes : Gb_core.Mitigation.mode list
(** The modes the Polybench rows cover (fine-grained, fence-on-detect,
    min-cut — every mode whose verifier must stay silent). *)

val e9_verify :
  ?secret:string -> ?modes:Gb_core.Mitigation.mode list -> unit -> e9
(** [modes] (default {!Gb_core.Mitigation.all_modes}) restricts both the
    attack and workload rows; note the scanner's ground truth needs the
    audited [Unsafe] run, so a filter without it scores against an empty
    flagged set. *)

val geomean_slowdown :
  mode_cycles list -> mode:Gb_core.Mitigation.mode -> float

val figure4_json : mode_cycles list -> Gb_util.Json.t
(** Machine-readable E2 results (for external plotting). *)
