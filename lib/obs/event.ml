type kind =
  | Translate_start
  | Translate_end of { ok : bool }
  | Trace_formed of { guest_insns : int; branches : int }
  | Load_hoisted of { spec_loads : int; past_branch : int }
  | Poison_flagged of { node : int }
  | Mitigation_applied of { constrained : int; fences : int }
  | Mcb_conflict of { addr : int }
  | Rollback
  | Cache_miss of { addr : int; write : bool }
  | Tier_transition of { tier : string }
  | Transient_line of { addr : int; set_idx : int; dependent : bool }
  | Verify_violation of { kind : string; bundle : int }
  | Cycle_attrib of { committed : int; overhead : int }
      (** periodic sample of the attribution ledger: cumulative cycles in
          the committed-work bucket vs everything else — rendered as a
          committed-vs-overhead counter lane pair in the Chrome trace *)

type t = { kind : kind; pc : int; region : int; cycle : int64 }

let name = function
  | Translate_start -> "translate_start"
  | Translate_end _ -> "translate_end"
  | Trace_formed _ -> "trace_formed"
  | Load_hoisted _ -> "load_hoisted"
  | Poison_flagged _ -> "poison_flagged"
  | Mitigation_applied _ -> "mitigation_applied"
  | Mcb_conflict _ -> "mcb_conflict"
  | Rollback -> "rollback"
  | Cache_miss _ -> "cache_miss"
  | Tier_transition _ -> "tier_transition"
  | Transient_line _ -> "transient_line"
  | Verify_violation _ -> "verify_violation"
  | Cycle_attrib _ -> "cycle_attrib"

let args kind =
  let module J = Gb_util.Json in
  match kind with
  | Translate_start | Rollback -> []
  | Translate_end { ok } -> [ ("ok", J.Bool ok) ]
  | Trace_formed { guest_insns; branches } ->
    [ ("guest_insns", J.Int guest_insns); ("branches", J.Int branches) ]
  | Load_hoisted { spec_loads; past_branch } ->
    [ ("spec_loads", J.Int spec_loads); ("past_branch", J.Int past_branch) ]
  | Poison_flagged { node } -> [ ("node", J.Int node) ]
  | Mitigation_applied { constrained; fences } ->
    [ ("constrained", J.Int constrained); ("fences", J.Int fences) ]
  | Mcb_conflict { addr } -> [ ("addr", J.Int addr) ]
  | Cache_miss { addr; write } ->
    [ ("addr", J.Int addr); ("write", J.Bool write) ]
  | Tier_transition { tier } -> [ ("tier", J.String tier) ]
  | Transient_line { addr; set_idx; dependent } ->
    [
      ("addr", J.Int addr); ("set", J.Int set_idx);
      ("dependent", J.Bool dependent);
    ]
  | Verify_violation { kind; bundle } ->
    [ ("kind", J.String kind); ("bundle", J.Int bundle) ]
  | Cycle_attrib { committed; overhead } ->
    [ ("committed", J.Int committed); ("overhead", J.Int overhead) ]

let to_json t =
  let module J = Gb_util.Json in
  J.Obj
    ([
       ("event", J.String (name t.kind));
       ("pc", J.Int t.pc);
       ("region", J.Int t.region);
       ("cycle", J.Int (Int64.to_int t.cycle));
     ]
    @ args t.kind)
