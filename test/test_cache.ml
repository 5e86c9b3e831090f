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

(* Set and tag come from truncating division, so without its sign check
   [flush_line] would evict line 0 for [-8] and set 3's tag-0 line for
   [-64]. A negative address contains no line: nothing is evicted and
   nothing counted. *)
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

let qt = QCheck_alcotest.to_alcotest

let () =
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
        ] );
      ("hierarchy", [ Alcotest.test_case "costs" `Quick hierarchy_costs ]);
    ]
