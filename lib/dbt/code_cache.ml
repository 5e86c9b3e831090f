type tier = Block | Trace

type entry = {
  e_pc : int;
  e_trace : Gb_vliw.Vinsn.trace;
  e_tier : tier;
  mutable e_stamp : int;
}

type config = { capacity : int; chain : bool }

let default_config = { capacity = 65536; chain = true }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* [Int.hash] is the generic table's own hash on an int, so buckets and
   every [fold] order are the ones a generic table gives; a probe compares
   keys as ints instead of calling [caml_compare] *)
module Pc_tbl = Hashtbl.Make (Int)

type t = {
  cfg : config;
  tbl : entry Pc_tbl.t;
  mutable used : int;
  mutable lru_clock : int;
  stats : stats;
  obs : Gb_obs.Sink.t;
  mutable on_evict : pc:int -> tier -> unit;
  mutable on_insert : entry -> unit;
}

let create ?(obs = Gb_obs.Sink.noop) cfg =
  if not cfg.chain then
    invalid_arg
      "Code_cache.create: config.chain must be true (trace chaining was removed)";
  {
    cfg;
    tbl = Pc_tbl.create 128;
    used = 0;
    lru_clock = 0;
    stats = { hits = 0; misses = 0; evictions = 0 };
    obs;
    on_evict = (fun ~pc:_ _ -> ());
    on_insert = ignore;
  }

let config t = t.cfg

let stats t = t.stats

let set_on_evict t f = t.on_evict <- f

let set_on_insert t f = t.on_insert <- f

let used_bundles t = t.used

let touch t e =
  t.lru_clock <- t.lru_clock + 1;
  e.e_stamp <- t.lru_clock

(* [find] runs per trace exit and [has_trace] per block entry: the only
   allocation left is the returned [Some] itself ([Pc_tbl.find]'s
   [Not_found] is a constant, so the miss path allocates nothing, and
   [has_trace] allocates nothing at all). *)
let peek t pc =
  match Pc_tbl.find t.tbl pc with
  | e -> Some e
  | exception Not_found -> None

let has_trace t pc =
  match Pc_tbl.find t.tbl pc with
  | e -> e.e_tier = Trace
  | exception Not_found -> false

let find t pc =
  let hit =
    match Pc_tbl.find t.tbl pc with
    | e ->
      touch t e;
      t.stats.hits <- t.stats.hits + 1;
      Some e
    | exception Not_found ->
      t.stats.misses <- t.stats.misses + 1;
      None
  in
  (if Gb_obs.Sink.is_active t.obs then
     match hit with
     | Some _ -> Gb_obs.Sink.incr t.obs "code_cache.hits"
     | None -> Gb_obs.Sink.incr t.obs "code_cache.misses");
  hit

let gauges t =
  if Gb_obs.Sink.is_active t.obs then begin
    Gb_obs.Sink.set_gauge t.obs "code_cache.bundles" (float_of_int t.used);
    Gb_obs.Sink.set_gauge t.obs "code_cache.entries"
      (float_of_int (Pc_tbl.length t.tbl))
  end

let remove t e =
  Pc_tbl.remove t.tbl e.e_pc;
  t.used <- t.used - Gb_vliw.Vinsn.bundle_count e.e_trace

let invalidate t pc =
  match Pc_tbl.find_opt t.tbl pc with
  | None -> ()
  | Some e ->
    remove t e;
    gauges t

let evict_lru t =
  let victim =
    Pc_tbl.fold
      (fun _ e acc ->
        match acc with
        | Some v when v.e_stamp <= e.e_stamp -> acc
        | _ -> Some e)
      t.tbl None
  in
  match victim with
  | None -> ()
  | Some e ->
    remove t e;
    t.stats.evictions <- t.stats.evictions + 1;
    if Gb_obs.Sink.is_active t.obs then begin
      Gb_obs.Sink.incr t.obs "code_cache.evictions";
      Gb_obs.Sink.event t.obs ~pc:e.e_pc ~region:e.e_pc
        (Gb_obs.Event.Tier_transition { tier = "evicted" })
    end;
    t.on_evict ~pc:e.e_pc e.e_tier

let insert t ~pc ~tier trace =
  (* same-pc replacement (tier promotion, retranslation) is not an
     eviction: no stat, no hook *)
  (match Pc_tbl.find_opt t.tbl pc with
  | Some old -> remove t old
  | None -> ());
  let cost = Gb_vliw.Vinsn.bundle_count trace in
  while t.used + cost > t.cfg.capacity && Pc_tbl.length t.tbl > 0 do
    evict_lru t
  done;
  let e = { e_pc = pc; e_trace = trace; e_tier = tier; e_stamp = 0 } in
  touch t e;
  Pc_tbl.replace t.tbl pc e;
  t.used <- t.used + cost;
  (* register the tier with the attribution ledger: it outlives eviction,
     so a trace still in flight keeps attributing to the tier it ran at *)
  (match Gb_obs.Sink.attrib t.obs with
  | Some a ->
    Gb_obs.Attrib.set_tier a ~entry:pc
      (match tier with
      | Block -> Gb_obs.Attrib.Block
      | Trace -> Gb_obs.Attrib.Trace)
  | None -> ());
  gauges t;
  t.on_insert e;
  e

let entries t = Pc_tbl.fold (fun _ e acc -> e :: acc) t.tbl []
