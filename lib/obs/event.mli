(** Typed trace events emitted by the DBT engine, the VLIW pipeline, the
    MCB and the cache. Each event carries the guest pc it concerns, the
    region (trace entry pc) it belongs to and the simulated-cycle
    timestamp at which it was recorded. *)

type kind =
  | Translate_start  (** the engine began translating a hot region *)
  | Translate_end of { ok : bool }
  | Trace_formed of { guest_insns : int; branches : int }
  | Load_hoisted of { spec_loads : int; past_branch : int }
      (** speculation the optimizer performed on the freshly built trace:
          MCB-tagged loads and loads free to move above a branch *)
  | Poison_flagged of { node : int }
      (** the poisoning analysis flagged the speculative load at IR node
          [node] (pc = its guest pc) as a Spectre pattern *)
  | Mitigation_applied of { constrained : int; fences : int }
  | Mcb_conflict of { addr : int }
      (** a store overlapped a live speculative-load entry *)
  | Rollback  (** an MCB check failed; the trace exit replayed *)
  | Cache_miss of { addr : int; write : bool }
  | Tier_transition of { tier : string }
      (** a region moved tiers: "block" (first-pass translation installed),
          "trace" (optimized trace installed), "despeculated",
          "retranslate" (stale trace dropped), "evicted" (dropped by the
          code cache under capacity pressure) *)
  | Transient_line of { addr : int; set_idx : int; dependent : bool }
      (** the leakage audit found a cache line (base address [addr], cache
          set [set_idx]) allocated by a transiently executed load that the
          architectural (shadow) execution never touched; [dependent] is
          true when the load's address was derived from speculatively
          loaded data — the Spectre leak condition. pc = the load's guest
          pc. Rendered on its own Chrome-trace track. *)
  | Verify_violation of { kind : string; bundle : int }
      (** the post-scheduling translation verifier found a violation of
          the speculation-safety property in an emitted trace: [kind] is
          the {!Gb_verify.Verifier.kind} name, [bundle] the cycle at
          which the offending op was scheduled. pc = the op's guest pc;
          region = the trace's entry. *)
  | Cycle_attrib of { committed : int; overhead : int }
      (** periodic sample of the attribution ledger: cumulative cycles in
          the committed-work bucket vs everything else — rendered as a
          committed-vs-overhead counter lane pair in the Chrome trace *)

type t = {
  kind : kind;
  pc : int;  (** guest pc (or the faulting address for cache events) *)
  region : int;  (** trace entry pc; 0 when not attributable *)
  cycle : int64;  (** simulated cycle at record time *)
}

val name : kind -> string
(** Stable event name, e.g. ["translate_start"], ["mcb_conflict"]. *)

val args : kind -> (string * Gb_util.Json.t) list
(** The kind's payload as JSON fields (excluding pc/region/cycle). *)

val to_json : t -> Gb_util.Json.t
