(* The L1D model as it was before its state became two flat int arrays
   indexed by shifts: per-set tag and LRU arrays, set and tag by
   truncating division, and a way scan compared with polymorphic [=].
   Kept verbatim as the reference that {!Gb_cache.Cache} must match
   operation for operation (test_cache's "flat cache = reference"
   property), for addresses whose every byte is non-negative; a
   negative address is the one place the two differ on purpose. *)

type config = { size_bytes : int; ways : int; line_bytes : int }

let default_config = { size_bytes = 64 * 1024; ways = 8; line_bytes = 64 }

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable read_misses : int;
  mutable write_misses : int;
  mutable flushes : int;
}

type t = {
  cfg : config;
  sets : int;
  tags : int array array;  (** sets x ways; -1 = invalid *)
  last_use : int array array;  (** LRU timestamps *)
  mutable tick : int;
  stats : stats;
  obs : Gb_obs.Sink.t;
  mutable accesses_since_miss : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let check_config cfg =
  if not (is_pow2 cfg.line_bytes) then
    Error (Printf.sprintf "line size %d is not a power of two" cfg.line_bytes)
  else if cfg.ways < 1 then
    Error (Printf.sprintf "%d ways: must be at least 1" cfg.ways)
  else
    let sets = cfg.size_bytes / (cfg.line_bytes * cfg.ways) in
    if sets <= 0 || not (is_pow2 sets) then
      Error
        (Printf.sprintf
           "%d bytes in %d ways of %d-byte lines make %d sets, not a power \
            of two"
           cfg.size_bytes cfg.ways cfg.line_bytes sets)
    else Ok ()

let create ?(obs = Gb_obs.Sink.noop) cfg =
  (match check_config cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cache.create: " ^ msg));
  let sets = cfg.size_bytes / (cfg.line_bytes * cfg.ways) in
  let stats =
    { reads = 0; writes = 0; read_misses = 0; write_misses = 0; flushes = 0 }
  in
  if Gb_obs.Sink.is_active obs then
    Gb_obs.Sink.add_counters obs (fun () ->
        [ ("cache.reads", stats.reads); ("cache.writes", stats.writes);
          ("cache.read_misses", stats.read_misses);
          ("cache.write_misses", stats.write_misses);
          ("cache.flushes", stats.flushes) ]);
  {
    cfg;
    sets;
    tags = Array.init sets (fun _ -> Array.make cfg.ways (-1));
    last_use = Array.init sets (fun _ -> Array.make cfg.ways 0);
    tick = 0;
    stats;
    obs;
    accesses_since_miss = 0;
  }

let config t = t.cfg

let stats t = t.stats

let line_of t addr = addr land lnot (t.cfg.line_bytes - 1)

(* set and tag are computed separately (not as a returned pair): this
   runs on every memory access of both tiers and must not allocate *)
let set_of t addr = addr / t.cfg.line_bytes land (t.sets - 1)

let tag_of t addr = addr / t.cfg.line_bytes / t.sets

(* way index holding [tag], or -1: an [int option] here would allocate
   per cache hit. Top-level recursion with explicit parameters — a local
   [let rec] capturing [tags]/[tag] compiles to a closure allocation per
   lookup, and this runs on every memory access of both tiers. *)
let rec scan_ways tags tag ways i =
  if i >= ways then -1
  else if tags.(i) = tag then i
  else scan_ways tags tag ways (i + 1)

let find_way t set tag = scan_ways t.tags.(set) tag t.cfg.ways 0

let lru_way t set =
  let use = t.last_use.(set) in
  let tags = t.tags.(set) in
  let best = ref 0 in
  for i = 1 to t.cfg.ways - 1 do
    (* prefer invalid ways, then oldest *)
    if tags.(i) = -1 && tags.(!best) <> -1 then best := i
    else if tags.(i) = -1 && tags.(!best) = -1 then ()
    else if tags.(!best) <> -1 && use.(i) < use.(!best) then best := i
  done;
  !best

let touch_line t addr ~write =
  let set = set_of t addr and tag = tag_of t addr in
  t.tick <- t.tick + 1;
  let way = find_way t set tag in
  if way >= 0 then begin
    t.last_use.(set).(way) <- t.tick;
    true
  end
  else begin
    let way = lru_way t set in
    t.tags.(set).(way) <- tag;
    t.last_use.(set).(way) <- t.tick;
    if write then t.stats.write_misses <- t.stats.write_misses + 1
    else t.stats.read_misses <- t.stats.read_misses + 1;
    if Gb_obs.Sink.is_active t.obs then begin
      (* spacing between consecutive misses: log-scale buckets separate
         streaming (every access misses) from resident working sets *)
      Gb_obs.Sink.observe t.obs "cache.miss_distance"
        (float_of_int t.accesses_since_miss);
      t.accesses_since_miss <- 0;
      Gb_obs.Sink.event t.obs ~pc:addr
        (Gb_obs.Event.Cache_miss { addr; write })
    end;
    false
  end

let access t ~addr ~write =
  if write then t.stats.writes <- t.stats.writes + 1
  else t.stats.reads <- t.stats.reads + 1;
  if Gb_obs.Sink.is_active t.obs then
    t.accesses_since_miss <- t.accesses_since_miss + 1;
  touch_line t addr ~write

let access_range t ~addr ~size ~write =
  let first = access t ~addr ~write in
  let last_addr = addr + size - 1 in
  if line_of t last_addr <> line_of t addr then
    let second = touch_line t last_addr ~write in
    first && second
  else first

let contains t addr = find_way t (set_of t addr) (tag_of t addr) >= 0

let set_index t addr = set_of t addr

let lines t =
  let acc = ref [] in
  for set = 0 to t.sets - 1 do
    let tags = t.tags.(set) in
    for way = 0 to t.cfg.ways - 1 do
      let tag = tags.(way) in
      if tag >= 0 then acc := ((tag * t.sets) + set) * t.cfg.line_bytes :: !acc
    done
  done;
  List.sort compare !acc

(* A negative address names no line: [set_of]/[tag_of] truncate towards
   zero and would alias it onto a real one ([-8] onto line 0x0). Every
   flush of both tiers and of the audit's shadow cache lands here, so
   the rule does too: no eviction, no count. *)
let flush_line t addr =
  if addr >= 0 then begin
    let set = set_of t addr and tag = tag_of t addr in
    t.stats.flushes <- t.stats.flushes + 1;
    let way = find_way t set tag in
    if way >= 0 then t.tags.(set).(way) <- -1
  end

let flush_all t =
  Array.iter (fun ways -> Array.fill ways 0 (Array.length ways) (-1)) t.tags
