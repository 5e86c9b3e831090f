(* Tests for the set-associative cache model: hit/miss behaviour, LRU
   replacement, flush semantics, and the invariants the flush+reload side
   channel relies on. *)

let small_config =
  (* 4 sets x 2 ways x 64-byte lines = 512 bytes: easy to reason about *)
  Gb_cache.Cache.{ size_bytes = 512; ways = 2; line_bytes = 64 }

let addr_of ~set ~tag = ((tag * 4) + set) * 64

let read c addr = Gb_cache.Cache.access c ~addr ~write:false

let basic_hit_miss () =
  let c = Gb_cache.Cache.create small_config in
  Alcotest.(check bool) "cold miss" false (read c 0);
  Alcotest.(check bool) "warm hit" true (read c 0);
  Alcotest.(check bool) "same line hit" true (read c 63);
  Alcotest.(check bool) "next line miss" false (read c 64)

let lru_eviction () =
  let c = Gb_cache.Cache.create small_config in
  let a = addr_of ~set:0 ~tag:1
  and b = addr_of ~set:0 ~tag:2
  and d = addr_of ~set:0 ~tag:3 in
  ignore (read c a);
  ignore (read c b);
  (* touch [a] again so [b] is LRU *)
  Alcotest.(check bool) "a still present" true (read c a);
  ignore (read c d);
  Alcotest.(check bool) "b evicted" false (Gb_cache.Cache.contains c b);
  Alcotest.(check bool) "a survives" true (Gb_cache.Cache.contains c a);
  Alcotest.(check bool) "d present" true (Gb_cache.Cache.contains c d)

let flush_semantics () =
  let c = Gb_cache.Cache.create small_config in
  ignore (read c 0);
  Gb_cache.Cache.flush_line c 32 (* same line as 0 *);
  Alcotest.(check bool) "flushed" false (Gb_cache.Cache.contains c 0);
  ignore (read c 0);
  ignore (read c 64);
  Gb_cache.Cache.flush_all c;
  Alcotest.(check bool) "all flushed (0)" false (Gb_cache.Cache.contains c 0);
  Alcotest.(check bool) "all flushed (64)" false (Gb_cache.Cache.contains c 64)

(* A negative address contains no line: nothing is evicted and nothing
   counted. Without the sign check, truncating division would alias [-8]
   onto line 0 and [-64] onto set 3's tag-0 line, and shifts would map
   either onto a bogus line. *)
let flush_negative_address () =
  let c = Gb_cache.Cache.create small_config in
  let aliased = addr_of ~set:3 ~tag:0 in
  ignore (read c 0);
  ignore (read c aliased);
  Gb_cache.Cache.flush_line c (-8);
  Gb_cache.Cache.flush_line c (-64);
  Alcotest.(check bool) "line 0 kept" true (Gb_cache.Cache.contains c 0);
  Alcotest.(check bool) "set 3 line kept" true
    (Gb_cache.Cache.contains c aliased);
  Alcotest.(check int) "not counted" 0
    (Gb_cache.Cache.stats c).Gb_cache.Cache.flushes

(* Every other entry point keeps the same rule: [access], [access_range]
   and [set_index] refuse a negative address, [contains] finds nothing
   there, and none of them counts or allocates a line for it. A range
   whose last byte runs past [max_int] touches its first line only: the
   tail wraps negative and names no line. *)
let negative_addresses () =
  let module C = Gb_cache.Cache in
  let c = C.create small_config in
  ignore (read c 0);
  let refused name f =
    match f () with
    | _ -> Alcotest.failf "%s of a negative address returned" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun addr ->
      refused "access" (fun () -> C.access c ~addr ~write:false);
      refused "write access" (fun () -> C.access c ~addr ~write:true);
      refused "access_range" (fun () ->
          C.access_range c ~addr ~size:8 ~write:false);
      refused "set_index" (fun () -> C.set_index c addr);
      Alcotest.(check bool) "contains nothing" false (C.contains c addr))
    [ -1; -8; -64; min_int ];
  let s = C.stats c in
  Alcotest.(check (list int)) "lines unchanged" [ 0 ] (C.lines c);
  Alcotest.(check (list int)) "nothing counted" [ 1; 0; 1; 0 ]
    [ s.C.reads; s.C.writes; s.C.read_misses; s.C.write_misses ];
  let top = max_int - 3 in
  Alcotest.(check bool) "wrapping range misses" false
    (C.access_range c ~addr:top ~size:8 ~write:false);
  Alcotest.(check (list int)) "only its first line" [ 0; C.line_of c top ]
    (C.lines c)

let straddling_access () =
  let c = Gb_cache.Cache.create small_config in
  (* 8 bytes starting 4 bytes before a line boundary touch two lines *)
  ignore (Gb_cache.Cache.access_range c ~addr:60 ~size:8 ~write:false);
  Alcotest.(check bool) "first line" true (Gb_cache.Cache.contains c 0);
  Alcotest.(check bool) "second line" true (Gb_cache.Cache.contains c 64)

let stats_counting () =
  let c = Gb_cache.Cache.create small_config in
  ignore (read c 0);
  ignore (read c 0);
  ignore (Gb_cache.Cache.access c ~addr:64 ~write:true);
  let s = Gb_cache.Cache.stats c in
  Alcotest.(check int) "reads" 2 s.Gb_cache.Cache.reads;
  Alcotest.(check int) "read misses" 1 s.Gb_cache.Cache.read_misses;
  Alcotest.(check int) "writes" 1 s.Gb_cache.Cache.writes;
  Alcotest.(check int) "write misses" 1 s.Gb_cache.Cache.write_misses

(* Property: after accessing an address, contains() holds; after flushing
   its line, it does not. *)
let flush_reload_prop =
  QCheck.Test.make ~count:500 ~name:"access then flush round-trip"
    QCheck.(small_nat)
    (fun n ->
      let c = Gb_cache.Cache.create small_config in
      let addr = n * 8 in
      ignore (Gb_cache.Cache.access c ~addr ~write:false);
      let present = Gb_cache.Cache.contains c addr in
      Gb_cache.Cache.flush_line c addr;
      let absent = not (Gb_cache.Cache.contains c addr) in
      present && absent)

(* Property: a set never holds more than [ways] distinct lines; filling a
   set with [ways] lines keeps all of them resident (no premature
   eviction). *)
let capacity_prop =
  QCheck.Test.make ~count:200 ~name:"way capacity exact"
    QCheck.(int_range 0 3)
    (fun set ->
      let c = Gb_cache.Cache.create small_config in
      let addrs = List.init small_config.Gb_cache.Cache.ways
          (fun tag -> addr_of ~set ~tag) in
      List.iter (fun a -> ignore (read c a)) addrs;
      List.for_all (Gb_cache.Cache.contains c) addrs)

(* Property: victim of an eviction is always the least recently used way. *)
let lru_prop =
  QCheck.Test.make ~count:300 ~name:"eviction victim is LRU"
    QCheck.(pair (int_range 0 3) (list_of_size (Gen.return 6) (int_range 0 4)))
    (fun (set, tag_seq) ->
      let module C = Gb_cache.Cache in
      let c = C.create small_config in
      let ways = small_config.C.ways in
      (* model: resident tags, most recent first, clamped to associativity *)
      let model = ref [] in
      List.for_all
        (fun tag ->
          let addr = addr_of ~set ~tag in
          let model_hit = List.mem tag !model in
          let hit = read c addr in
          let mru = tag :: List.filter (fun t -> t <> tag) !model in
          model := List.filteri (fun i _ -> i < ways) mru;
          hit = model_hit
          && List.for_all (fun t -> C.contains c (addr_of ~set ~tag:t)) !model)
        tag_seq)

(* --- the flat cache against the model it replaced --------------------- *)

(* The seed of this binary's properties: QCHECK_SEED when it is set, a
   fresh one otherwise. Each property draws from its own state made from
   it, and the reference property's failure message ends with it. *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some seed -> seed
  | None ->
    Random.self_init ();
    Random.int 1_000_000_000

let rerun = Printf.sprintf "rerun with QCHECK_SEED=%d" qcheck_seed

type op =
  | Access of int * bool
  | Range of int * int * bool
  | Flush of int
  | Flush_all

(* Geometries [check_config] accepts: 1-16 ways (not only powers of
   two), 4-256-byte lines and 1-128 sets. Addresses mostly fall on a few
   more lines than each set holds, at any offset, so hits, evictions and
   line-straddling ranges all happen; the rest are far out, up to the
   highest address whose 8 bytes are all non-negative. *)
let reference_gen =
  let open QCheck.Gen in
  let* ways = int_range 1 16 and* line_bits = int_range 2 8
  and* set_bits = int_range 0 7 in
  let line_bytes = 1 lsl line_bits and sets = 1 lsl set_bits in
  let near =
    let* line = int_bound ((sets * (ways + 2)) - 1)
    and* off = int_bound (line_bytes - 1) in
    return ((line * line_bytes) + off)
  in
  let far =
    oneof
      [ map (fun r -> max_int - 7 - r) (int_bound (4 * line_bytes));
        map2 (fun hi lo -> (hi lsl 40) lor lo) (int_bound 4095) (int_bound 255) ]
  in
  let addr = frequency [ (9, near); (1, far) ] in
  let op =
    frequency
      [ (6, map2 (fun a w -> Access (a, w)) addr bool);
        ( 6,
          map3 (fun a s w -> Range (a, s, w)) addr (oneofl [ 1; 2; 4; 8 ]) bool
        );
        (2, map (fun a -> Flush a) addr); (1, return Flush_all) ]
  in
  let* ops = list_size (int_range 1 400) op in
  return
    ( Gb_cache.Cache.{ size_bytes = sets * ways * line_bytes; ways; line_bytes },
      ops )

let print_reference ((cfg : Gb_cache.Cache.config), ops) =
  let op = function
    | Access (a, w) -> Printf.sprintf "access %d %b" a w
    | Range (a, s, w) -> Printf.sprintf "range %d %d %b" a s w
    | Flush a -> Printf.sprintf "flush %d" a
    | Flush_all -> "flush_all"
  in
  Printf.sprintf "%d bytes, %d ways, %d-byte lines:\n%s" cfg.size_bytes
    cfg.ways cfg.line_bytes
    (String.concat "\n" (List.map op ops))

(* Every hit answer is equal, and at the end so are the counters, the
   resident lines, and presence and set index at every address used. *)
let reference_prop =
  QCheck.Test.make ~count:300 ~name:"flat cache = reference"
    (QCheck.make ~print:print_reference reference_gen)
    (fun ((cfg : Gb_cache.Cache.config), ops) ->
      let module C = Gb_cache.Cache in
      let module R = Cache_reference in
      let c = C.create cfg in
      let r =
        R.create
          R.{ size_bytes = cfg.size_bytes; ways = cfg.ways;
              line_bytes = cfg.line_bytes }
      in
      let fail fmt = QCheck.Test.fail_reportf (fmt ^^ "; %s") in
      List.iteri
        (fun i op ->
          let got, want =
            match op with
            | Access (addr, write) ->
              (C.access c ~addr ~write, R.access r ~addr ~write)
            | Range (addr, size, write) ->
              ( C.access_range c ~addr ~size ~write,
                R.access_range r ~addr ~size ~write )
            | Flush addr ->
              C.flush_line c addr;
              R.flush_line r addr;
              (true, true)
            | Flush_all ->
              C.flush_all c;
              R.flush_all r;
              (true, true)
          in
          if got <> want then
            fail "op %d: hit %b, reference %b" i got want rerun)
        ops;
      let cs = C.stats c and rs = R.stats r in
      let counts (s : C.stats) =
        [ s.reads; s.writes; s.read_misses; s.write_misses; s.flushes ]
      and ref_counts (s : R.stats) =
        [ s.reads; s.writes; s.read_misses; s.write_misses; s.flushes ]
      in
      if counts cs <> ref_counts rs then fail "stats differ" rerun;
      if C.lines c <> R.lines r then fail "lines differ" rerun;
      List.iter
        (fun op ->
          match op with
          | Access (addr, _) | Range (addr, _, _) | Flush addr ->
            if C.contains c addr <> R.contains r addr then
              fail "contains %d differs" addr rerun;
            if C.set_index c addr <> R.set_index r addr then
              fail "set_index %d differs" addr rerun
          | Flush_all -> ())
        ops;
      true)

let hierarchy_costs () =
  let h = Gb_cache.Hierarchy.create Gb_cache.Hierarchy.default_config in
  let hit1 = Gb_cache.Hierarchy.access h ~addr:0 ~size:8 ~write:false in
  let hit2 = Gb_cache.Hierarchy.access h ~addr:0 ~size:8 ~write:false in
  Alcotest.(check bool) "first is miss" false hit1;
  Alcotest.(check bool) "second is hit" true hit2;
  Alcotest.(check int) "interp miss cost" 40
    (Gb_cache.Hierarchy.interp_cost h ~hit:false);
  Alcotest.(check int) "interp hit cost" 1
    (Gb_cache.Hierarchy.interp_cost h ~hit:true);
  Alcotest.(check int) "vliw hit cost" 0
    (Gb_cache.Hierarchy.vliw_cost h ~hit:true)

let qt t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) t

let () =
  Printf.printf "qcheck random seed: %d\n%!" qcheck_seed;
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick basic_hit_miss;
          Alcotest.test_case "lru eviction" `Quick lru_eviction;
          Alcotest.test_case "flush" `Quick flush_semantics;
          Alcotest.test_case "flush of a negative address" `Quick
            flush_negative_address;
          Alcotest.test_case "straddling access" `Quick straddling_access;
          Alcotest.test_case "stats" `Quick stats_counting;
          qt flush_reload_prop;
          qt capacity_prop;
          qt lru_prop;
          Alcotest.test_case "negative addresses name no line" `Quick
            negative_addresses;
          qt reference_prop;
        ] );
      ("hierarchy", [ Alcotest.test_case "costs" `Quick hierarchy_costs ]);
    ]
