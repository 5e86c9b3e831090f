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

(* The entry {!find} and {!peek} return on a miss, shared by every
   cache: never installed, never touched. *)
let none =
  { e_pc = -1; e_tier = Block; e_stamp = 0;
    e_trace =
      { Gb_vliw.Vinsn.entry_pc = -1; bundles = [||]; stubs = [||];
        n_regs = Gb_vliw.Vinsn.guest_regs; guest_insns = 0;
        meta = Gb_vliw.Vinsn.empty_meta; decoded = Gb_vliw.Vinsn.Undecoded } }

type t = {
  cfg : config;
  text_lo : int;
  slots : entry array;
      (** the entry at the text word [text_lo + 4 * i] in slot [i], or
          {!none} *)
  mutable count : int;  (** installed entries *)
  mutable used : int;
  mutable lru_clock : int;
  stats : stats;
  obs : Gb_obs.Sink.t;
  mutable on_evict : pc:int -> tier -> unit;
  mutable on_insert : entry -> unit;
}

let create ?(obs = Gb_obs.Sink.noop) ~text_lo ~text_hi cfg =
  if not cfg.chain then
    invalid_arg
      "Code_cache.create: config.chain must be true (trace chaining was removed)";
  if text_lo land 3 <> 0 || text_hi < text_lo then
    invalid_arg "Code_cache.create: text range";
  {
    cfg;
    text_lo;
    slots = Array.make ((text_hi - text_lo) lsr 2) none;
    count = 0;
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

(* [lsr] maps a pc below text to a huge slot *)
let[@inline] slot t pc =
  let i = (pc - t.text_lo) lsr 2 in
  if pc land 3 = 0 && i < Array.length t.slots then i else -1

(* [find] runs per trace exit and [peek] per block entry, and neither
   allocates. *)
let peek t pc =
  let i = slot t pc in
  if i < 0 then none else Array.unsafe_get t.slots i

let find t pc =
  let e = peek t pc in
  let hit = e != none in
  if hit then begin
    touch t e;
    t.stats.hits <- t.stats.hits + 1
  end
  else t.stats.misses <- t.stats.misses + 1;
  if Gb_obs.Sink.is_active t.obs then
    Gb_obs.Sink.incr t.obs
      (if hit then "code_cache.hits" else "code_cache.misses");
  e

let gauges t =
  if Gb_obs.Sink.is_active t.obs then begin
    Gb_obs.Sink.set_gauge t.obs "code_cache.bundles" (float_of_int t.used);
    Gb_obs.Sink.set_gauge t.obs "code_cache.entries"
      (float_of_int t.count)
  end

let remove t e =
  t.slots.(slot t e.e_pc) <- none;
  t.count <- t.count - 1;
  t.used <- t.used - Gb_vliw.Vinsn.bundle_count e.e_trace

let invalidate t pc =
  let e = peek t pc in
  if e != none then begin
    remove t e;
    gauges t
  end

(* the entry with the oldest stamp: stamps are unique *)
let evict_lru t =
  let e =
    Array.fold_left
      (fun v e ->
        if e != none && (v == none || e.e_stamp < v.e_stamp) then e else v)
      none t.slots
  in
  if e != none then begin
    remove t e;
    t.stats.evictions <- t.stats.evictions + 1;
    if Gb_obs.Sink.is_active t.obs then begin
      Gb_obs.Sink.incr t.obs "code_cache.evictions";
      Gb_obs.Sink.event t.obs ~pc:e.e_pc ~region:e.e_pc
        (Gb_obs.Event.Tier_transition { tier = "evicted" })
    end;
    t.on_evict ~pc:e.e_pc e.e_tier
  end

let insert t ~pc ~tier trace =
  let i = slot t pc in
  if i < 0 then invalid_arg "Code_cache.insert: pc outside text";
  (* same-pc replacement (tier promotion, retranslation) is not an
     eviction: no stat, no hook *)
  let old = t.slots.(i) in
  if old != none then remove t old;
  let cost = Gb_vliw.Vinsn.bundle_count trace in
  while t.used + cost > t.cfg.capacity && t.count > 0 do
    evict_lru t
  done;
  let e = { e_pc = pc; e_trace = trace; e_tier = tier; e_stamp = 0 } in
  touch t e;
  t.slots.(i) <- e;
  t.count <- t.count + 1;
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

let entries t =
  Array.fold_right (fun e acc -> if e == none then acc else e :: acc) t.slots
    []
