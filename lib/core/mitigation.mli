(** The countermeasure (Section IV-B): constrain the schedule so detected
    Spectre patterns cannot leak.

    Four modes are evaluated in the paper, plus one drawn from the
    related work:
    - [Unsafe]: no countermeasure (the baseline of Figure 4);
    - [Fine_grained]: the paper's contribution — for each detected
      pattern, re-insert only the control/memory dependency of the leaking
      load (the red dashed edge of Figure 3-C);
    - [Fence_on_detect]: insert a full scheduling barrier in front of each
      detected pattern (the OO7-style fence the paper compares against);
    - [Min_cut]: BLADE-style global protect placement ({!Leakcut}) — a
      minimum cut of the source→transmitter flow network over the DFG,
      realized as targeted dependency re-insertion, index masks, or (last
      resort) fences; checked against the emitted schedule by
      {!Gb_verify.Verifier.check_cut};
    - [No_speculation]: turn speculation off entirely in the optimizer
      (handled upstream via {!Gb_ir.Opt_config.no_speculation}; applying
      it here is a no-op). *)

type mode = Unsafe | Fine_grained | Fence_on_detect | Min_cut | No_speculation

val mode_name : mode -> string

val all_modes : mode list

val mode_aliases : (string * mode) list
(** Short spellings accepted wherever a mode is parsed: [fence], [fine],
    [mincut], [nospec] and [no-spec]. *)

val mode_of_string : string -> (mode, string) result
(** The mode a {!mode_name} or a {!mode_aliases} spelling names; the
    error message lists every {!mode_name}. The CLI's [--mode] and the
    bench's [--modes] both parse with it. *)

val opt_of_mode : mode -> Gb_ir.Opt_config.t
(** Speculation switches the optimizer should run with under each mode. *)

type report = {
  patterns_found : int;  (** Spectre patterns detected (over all rounds) *)
  loads_constrained : int;
  fences_inserted : int;
  rounds : int;  (** analyze/constrain iterations until fixpoint *)
  flagged_pcs : int list;
      (** distinct guest pcs of the flagged loads, sorted — a pc
          re-flagged across fixpoint rounds (or shared by unrolled nodes)
          appears once (consumed by the leakage audit and the gadget
          scanner's scoring) *)
  cut_plan : Leakcut.plan option;
      (** [Some plan] iff [mode = Min_cut]: the realized leak-cut, which
          the engine hands to {!Gb_verify.Verifier.check_cut} whenever
          install-time verification is on *)
}

val empty_report : report

val apply :
  ?obs:Gb_obs.Sink.t ->
  ?unsound_cut:bool ->
  mode ->
  lat:Gb_ir.Latency.t ->
  Gb_ir.Dfg.t ->
  report
(** Run the poisoning analysis to fixpoint, constraining every detected
    pattern according to [mode]. After this returns, re-running
    {!Poison.analyze} finds no pattern (verified by property tests).
    [obs] (default {!Gb_obs.Sink.noop}) receives [mitigation.*] counters,
    one {!Gb_obs.Event.Poison_flagged} event per flagged load (pc = the
    load's guest pc) and a {!Gb_obs.Event.Mitigation_applied} summary.
    [unsound_cut] (default false, [Min_cut] only) forwards
    {!Leakcut.apply}'s sensitivity control: the first cut repair is left
    unrealized so the cut-soundness verifier pass can prove it notices. *)
