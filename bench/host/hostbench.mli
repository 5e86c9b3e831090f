(** Host-time benchmark of the simulator.

    Four seeded workloads run through the public API of {!Gb_system},
    {!Gb_diff} and {!Gb_attack}. Every job is a fresh processor, oracle or
    attack run, and its result is checked. The end-to-end metrics are
    timed with tracing off; a separate traced run times each layer's
    public functions from outside. bench/host/README.md is the metric
    dictionary. *)

type workload = Figure4_sweep | Translate_churn | Oracle_diff | Spectre_attack

val workloads : workload list

val name : workload -> string
(** ["figure4-sweep"], ["translate-churn"], ["oracle-diff"],
    ["spectre-attack"]. *)

val of_name : string -> workload option

val isolate_env : unit -> unit
(** Set [GHOSTBUSTERS_INJECT] to [""] (injection off) and print one stderr
    line for each environment setting this overrides or ignores. *)

val config_of : workload -> Gb_core.Mitigation.mode -> Gb_system.Processor.config
(** The workload's processor configuration. Worker count, chaining and
    code-cache capacity are pinned, never taken from the environment. *)

type kind
(** One distinct job of a round: a program, a mode and a config. *)

type setup = private {
  workload : workload;
  seed : int;
  kinds : kind array;
  expected : (string, int * string) Hashtbl.t;
      (** program -> exit code and output on the reference interpreter *)
  first : (string, int64) Hashtbl.t;
      (** kind -> simulated cycles of its first run *)
  mutable setup_failed : int;  (** failed warm-up jobs *)
}

val setup : ?kinds:int -> workload -> seed:int -> setup
(** Assemble the programs, run each on the reference interpreter and run
    one warm-up round. [kinds] keeps only the first [n] kinds of the
    workload. *)

type metric = { m_name : string; m_unit : string; m_value : float }

type report = {
  attempted : int;
  failed : int;
  correct : bool;
      (** no job failed, in set-up or timed, and every set-up reproduced
          the same simulated cycles *)
  metrics : metric list;
}

val measure : (float * setup) list -> seconds:float -> report
(** [measure setups ~seconds] takes set-ups with their durations in
    seconds, runs whole rounds on the first until [seconds] have passed
    (at least one round) and reports the end-to-end metrics. Each job kind
    is timed at its fastest run. *)

val end_to_end : workload -> seed:int -> seconds:float -> report
(** {!setup} at least three times and for at least a second, then
    {!measure}. *)

val traced :
  ?kinds:int -> ?rounds:int -> workload -> seed:int -> report * Gb_util.Json.t
(** [rounds] (default 2) untraced rounds, then the same rounds traced;
    returns the per-layer metrics and the spans as Chrome [trace_event]
    JSON. *)

val timer_phases : (string * string) list
(** Each in-program {!Gb_obs.Timer} phase with the replay span that
    measures the same work. *)
