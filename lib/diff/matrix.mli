(** The differential gate matrix: {!Oracle} runs over the attack suite
    (every mitigation mode) and the Polybench kernels, each repeated
    under every fault-injection variant, plus the oracle-sensitivity
    negative control. This is the programmatic core of the
    [ghostbusters diff] CLI subcommand, the E10 bench experiment and the
    CI gate. *)

type row = {
  r_workload : string;  (** ["spectre-v1"], ["polybench:matmul"], ... *)
  r_mode : string;  (** mitigation mode, or ["default"] for kernels *)
  r_inject : string;  (** {!Gb_system.Inject.spec_name}, or ["none"] *)
  r_seed : int64;
  r_clean : bool;
  r_divergence : string option;  (** rendered first divergence *)
  r_syncs : int;
  r_injected : int;
  r_recovered : int;
  r_ref_insns : int64;
}

type t = {
  rows : row list;
  divergences : int;  (** diverging rows, sensitivity control excluded *)
  unrecovered : int;
      (** injected-but-never-recovered faults across sound rows *)
  sensitivity_detected : bool;
      (** the unsound [mcb-suppress] control produced a detected
          divergence — proof the oracle is not vacuously green *)
  seed : int64;
}

val default_attacks : string list
(** ["spectre-v1"; "spectre-v4"]. *)

val default_injects : Gb_system.Inject.spec option list
(** No injection, then each recoverable kind at its default rate. *)

val attack_program : string -> Gb_kernelc.Ast.program option

val inject_name : Gb_system.Inject.spec option -> string

val run :
  ?obs:Gb_obs.Sink.t ->
  ?seed:int64 ->
  ?attacks:string list ->
  ?modes:Gb_core.Mitigation.mode list ->
  ?kernels:string list ->
  ?injects:Gb_system.Inject.spec option list ->
  unit ->
  t
(** Run the matrix: each attack under every mitigation mode and each
    Polybench kernel under the default configuration, once per inject
    variant, then the sensitivity control. [modes] (default
    {!Gb_core.Mitigation.all_modes}) restricts the attack cells — the
    CLI's [--modes] filter; kernel cells and the sensitivity control are
    unaffected. [kernels] defaults to the whole Polybench suite. Raises
    [Invalid_argument] on an unknown attack or kernel name. *)

val pass : t -> bool
(** Zero divergences, zero unrecovered faults, sensitivity control
    detected. *)

val to_json : t -> Gb_util.Json.t

val pp_summary : Format.formatter -> t -> unit
