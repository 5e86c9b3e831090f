type tier = Block | Trace

type code_mode = Nonspec | Mitigated of Gb_core.Mitigation.mode

type entry = {
  e_pc : int;
  e_trace : Gb_vliw.Vinsn.trace;
  e_tier : tier;
  e_mode : code_mode;
  mutable e_stamp : int;
}

type config = { capacity : int; chain : bool }

let default_config =
  { capacity = 65536; chain = Sys.getenv_opt "GHOSTBUSTERS_NO_CHAIN" = None }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;
  mutable chain_links : int;
  mutable chain_breaks : int;
}

(* [Int.hash] is the generic table's own hash on an int, so buckets and
   every [fold] order are the ones a generic table gives; a probe compares
   keys as ints instead of calling [caml_compare] *)
module Pc_tbl = Hashtbl.Make (Int)

type t = {
  cfg : config;
  tbl : entry Pc_tbl.t;
  in_links : (int * Gb_vliw.Vinsn.stub) list ref Pc_tbl.t;
      (* target pc -> (source pc, stub) of every link ever made into the
         translation currently (or formerly) installed there; stale pairs
         (stub already unlinked, or re-pointed at a newer translation of
         the same pc — never of a different pc, since links require
         stub.target_pc = target) are skipped via the identity check *)
  mutable used : int;
  mutable lru_clock : int;
  stats : stats;
  obs : Gb_obs.Sink.t;
  mutable on_evict : pc:int -> tier -> unit;
}

let create ?(obs = Gb_obs.Sink.noop) cfg =
  {
    cfg;
    tbl = Pc_tbl.create 128;
    in_links = Pc_tbl.create 128;
    used = 0;
    lru_clock = 0;
    stats =
      {
        hits = 0;
        misses = 0;
        inserts = 0;
        evictions = 0;
        chain_links = 0;
        chain_breaks = 0;
      };
    obs;
    on_evict = (fun ~pc:_ _ -> ());
  }

let config t = t.cfg

let stats t = t.stats

let set_on_evict t f = t.on_evict <- f

let used_bundles t = t.used

let touch t e =
  t.lru_clock <- t.lru_clock + 1;
  e.e_stamp <- t.lru_clock

(* [peek]/[find] run per trace exit on the chain-follow path and
   [has_trace] per block entry: the only allocation left is the returned
   [Some] itself ([Pc_tbl.find]'s [Not_found] is a constant, so the miss
   path allocates nothing, and [has_trace] allocates nothing at all). *)
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

let break_stub t ~src_pc (stub : Gb_vliw.Vinsn.stub) =
  match stub.Gb_vliw.Vinsn.chain with
  | None -> ()
  | Some target ->
    stub.Gb_vliw.Vinsn.chain <- None;
    t.stats.chain_breaks <- t.stats.chain_breaks + 1;
    if Gb_obs.Sink.is_active t.obs then begin
      Gb_obs.Sink.incr t.obs "code_cache.chain_breaks";
      Gb_obs.Sink.event t.obs ~pc:stub.Gb_vliw.Vinsn.target_pc ~region:src_pc
        (Gb_obs.Event.Chain
           { target = target.Gb_vliw.Vinsn.entry_pc; op = `Break })
    end

(* Sever every link touching [e]: its own out-links (the pipeline may
   still hold the trace object mid-flight and must not follow chains out
   of dropped code) and all in-links whose stub still points at exactly
   this trace object. *)
let unlink t e =
  Array.iter (break_stub t ~src_pc:e.e_pc) e.e_trace.Gb_vliw.Vinsn.stubs;
  match Pc_tbl.find_opt t.in_links e.e_pc with
  | None -> ()
  | Some l ->
    List.iter
      (fun (src_pc, (stub : Gb_vliw.Vinsn.stub)) ->
        match stub.Gb_vliw.Vinsn.chain with
        | Some target when target == e.e_trace -> break_stub t ~src_pc stub
        | Some _ | None -> ())
      !l;
    Pc_tbl.remove t.in_links e.e_pc

let remove t e =
  unlink t e;
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

let insert t ~pc ~tier ~mode trace =
  (* same-pc replacement (tier promotion, retranslation) is not an
     eviction: no stat, no hook *)
  (match Pc_tbl.find_opt t.tbl pc with
  | Some old -> remove t old
  | None -> ());
  let cost = Gb_vliw.Vinsn.bundle_count trace in
  while t.used + cost > t.cfg.capacity && Pc_tbl.length t.tbl > 0 do
    evict_lru t
  done;
  let e =
    { e_pc = pc; e_trace = trace; e_tier = tier; e_mode = mode; e_stamp = 0 }
  in
  touch t e;
  Pc_tbl.replace t.tbl pc e;
  t.used <- t.used + cost;
  t.stats.inserts <- t.stats.inserts + 1;
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
  e

(* Non-speculative code is mode-neutral: it neither leaks speculative
   state of its own nor inherits any (the MCB is cleared and the audit's
   run window closed at every stub commit), so it may chain from and to
   anything. Two speculating translations must agree on their mode. *)
let compatible ~src ~dst =
  match (src.e_mode, dst.e_mode) with
  | Nonspec, _ | _, Nonspec -> true
  | Mitigated a, Mitigated b -> a = b

(* whether [e] is still the entry installed at its pc *)
let live t e =
  match Pc_tbl.find t.tbl e.e_pc with
  | cur -> cur == e
  | exception Not_found -> false

let link t ~src ~stub ~dst =
  (* [src] and [dst] are whatever the caller looked up, possibly before
     an invalidation, eviction or replacement removed one of them.
     Linking through a dead entry would plant a chain no removal can ever
     break — [unlink] only reaches stubs via the live tables — so both
     endpoints must still be the installed entries at their pcs. *)
  if
    (not t.cfg.chain)
    || stub < 0
    || stub >= Array.length src.e_trace.Gb_vliw.Vinsn.stubs
    || (not (compatible ~src ~dst))
    || not (live t src && live t dst)
  then false
  else
    let s = src.e_trace.Gb_vliw.Vinsn.stubs.(stub) in
    if s.Gb_vliw.Vinsn.target_pc <> dst.e_pc then false
    else
      match s.Gb_vliw.Vinsn.chain with
      | Some target when target == dst.e_trace -> true
      | _ ->
        s.Gb_vliw.Vinsn.chain <- Some dst.e_trace;
        let l =
          match Pc_tbl.find_opt t.in_links dst.e_pc with
          | Some l -> l
          | None ->
            let l = ref [] in
            Pc_tbl.replace t.in_links dst.e_pc l;
            l
        in
        l := (src.e_pc, s) :: !l;
        t.stats.chain_links <- t.stats.chain_links + 1;
        if Gb_obs.Sink.is_active t.obs then begin
          Gb_obs.Sink.incr t.obs "code_cache.chain_links";
          Gb_obs.Sink.event t.obs ~pc:s.Gb_vliw.Vinsn.target_pc
            ~region:src.e_pc
            (Gb_obs.Event.Chain { target = dst.e_pc; op = `Link })
        end;
        true

let entries t = Pc_tbl.fold (fun _ e acc -> e :: acc) t.tbl []

let occupancy t tier =
  Pc_tbl.fold
    (fun _ e ((n, b) as acc) ->
      if e.e_tier = tier then (n + 1, b + Gb_vliw.Vinsn.bundle_count e.e_trace)
      else acc)
    t.tbl (0, 0)

let well_linked t =
  Pc_tbl.fold
    (fun _ e ok ->
      ok
      && Array.for_all
           (fun (s : Gb_vliw.Vinsn.stub) ->
             match s.Gb_vliw.Vinsn.chain with
             | None -> true
             | Some target -> (
               s.Gb_vliw.Vinsn.target_pc = target.Gb_vliw.Vinsn.entry_pc
               &&
               match Pc_tbl.find_opt t.tbl target.Gb_vliw.Vinsn.entry_pc with
               | Some e' -> e'.e_trace == target
               | None -> false))
           e.e_trace.Gb_vliw.Vinsn.stubs)
    t.tbl true
