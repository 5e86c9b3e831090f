type config = { size_bytes : int; ways : int; line_bytes : int }

let default_config = { size_bytes = 64 * 1024; ways = 8; line_bytes = 64 }

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable read_misses : int;
  mutable write_misses : int;
  mutable flushes : int;
}

(* Way [w] of set [s] is slot [s * ways + w] of both arrays. Line size
   and set count are powers of two ({!check_config}), so a non-negative
   address's set is [(addr lsr line_shift) land set_mask] and its tag
   [addr lsr set_shift]: no division, and no tag is ever -1. *)
type t = {
  cfg : config;
  ways : int;
  set_mask : int;  (** sets - 1 *)
  line_shift : int;  (** log2 line_bytes *)
  set_shift : int;  (** log2 (line_bytes * sets) *)
  tags : int array;  (** -1 = invalid *)
  last_use : int array;  (** LRU timestamps *)
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

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

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
  let line_shift = log2 cfg.line_bytes in
  {
    cfg;
    ways = cfg.ways;
    set_mask = sets - 1;
    line_shift;
    set_shift = line_shift + log2 sets;
    tags = Array.make (sets * cfg.ways) (-1);
    last_use = Array.make (sets * cfg.ways) 0;
    tick = 0;
    stats;
    obs;
    accesses_since_miss = 0;
  }

let config t = t.cfg

let stats t = t.stats

let line_of t addr = addr land lnot (t.cfg.line_bytes - 1)

(* A negative address names no line: shifting it would map it onto a
   bogus one. Callers that can compute one test it first. *)
let negative fn addr =
  invalid_arg (Printf.sprintf "Cache.%s: negative address %d" fn addr)

(* First slot of the set at [base] for a non-negative address; set and
   tag are computed separately, not returned as a pair, because this
   runs on every memory access of both tiers and must not allocate. *)
let set_base t addr = ((addr lsr t.line_shift) land t.set_mask) * t.ways

(* Slot in [i, stop) holding [tag], or -1 (an [int option] would
   allocate per hit). The annotations make each probe an integer
   compare: without them the scan is polymorphic and every probe calls
   C's [caml_equal]. Top-level recursion with explicit parameters: a
   local [let rec] capturing the arrays would allocate a closure per
   lookup. *)
let rec scan (tags : int array) (tag : int) i stop =
  if i >= stop then -1
  else if tags.(i) = tag then i
  else scan tags tag (i + 1) stop

(* The slot a miss allocates in [i, stop): the first invalid way, else
   the least recently used one ([best] so far; valid ways' stamps are
   distinct). *)
let rec victim (tags : int array) (use : int array) best i stop =
  if i >= stop then best
  else if tags.(i) = -1 then i
  else victim tags use (if use.(i) < use.(best) then i else best) (i + 1) stop

let find t addr =
  let base = set_base t addr in
  scan t.tags (addr lsr t.set_shift) base (base + t.ways)

let touch_line t addr ~write =
  let base = set_base t addr and tag = addr lsr t.set_shift in
  let stop = base + t.ways in
  t.tick <- t.tick + 1;
  let slot = scan t.tags tag base stop in
  if slot >= 0 then begin
    t.last_use.(slot) <- t.tick;
    true
  end
  else begin
    let slot = victim t.tags t.last_use base base stop in
    t.tags.(slot) <- tag;
    t.last_use.(slot) <- t.tick;
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
  if addr < 0 then negative "access" addr;
  if write then t.stats.writes <- t.stats.writes + 1
  else t.stats.reads <- t.stats.reads + 1;
  if Gb_obs.Sink.is_active t.obs then
    t.accesses_since_miss <- t.accesses_since_miss + 1;
  touch_line t addr ~write

(* The last byte of a range that runs past [max_int] wraps negative and
   names no line, so only the first line is touched. *)
let access_range t ~addr ~size ~write =
  let first = access t ~addr ~write in
  let last_addr = addr + size - 1 in
  if last_addr >= 0 && last_addr lsr t.line_shift <> addr lsr t.line_shift
  then
    let second = touch_line t last_addr ~write in
    first && second
  else first

let contains t addr = addr >= 0 && find t addr >= 0

let set_index t addr =
  if addr < 0 then negative "set_index" addr;
  (addr lsr t.line_shift) land t.set_mask

let lines t =
  let acc = ref [] in
  for set = 0 to t.set_mask do
    for way = 0 to t.ways - 1 do
      let tag = t.tags.((set * t.ways) + way) in
      if tag >= 0 then
        acc := (tag lsl t.set_shift) lor (set lsl t.line_shift) :: !acc
    done
  done;
  List.sort Int.compare !acc

(* Every flush of both tiers and of the audit's shadow cache lands here,
   so a negative address is no eviction and no count here too. *)
let flush_line t addr =
  if addr >= 0 then begin
    t.stats.flushes <- t.stats.flushes + 1;
    let slot = find t addr in
    if slot >= 0 then t.tags.(slot) <- -1
  end

let flush_all t = Array.fill t.tags 0 (Array.length t.tags) (-1)
