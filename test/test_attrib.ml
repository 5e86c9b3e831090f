(* Cycle-attribution ledger: conservation, cause classification, the
   explained-slowdown acceptance property, and the observability
   satellites (p95 export, ring-wrap accounting). *)

module At = Gb_obs.Attrib

(* run [asm] under [mode]; returns (result, ledger) with conservation
   already re-checked explicitly (the processor asserts it too) *)
let run_attributed mode asm =
  let obs = Gb_obs.Sink.create ~attrib:true () in
  let config = Gb_system.Processor.config_for mode in
  let r = Gb_system.Processor.run_program ~config ~obs asm in
  let a = Option.get (Gb_obs.Sink.attrib obs) in
  (match At.check a ~cycles:r.Gb_system.Processor.cycles with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (r, a)

let units a cause = List.assoc cause (At.by_cause a)

let v1_asm =
  lazy
    (Gb_kernelc.Compile.assemble
       (Gb_attack.Spectre_v1.program ~secret:"S3cr3t!" ()))

(* --- cause taxonomy ----------------------------------------------------- *)

let test_cause_names () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (At.cause_name c ^ " round-trips")
        true
        (At.cause_of_name (At.cause_name c) = Some c))
    At.all_causes;
  Alcotest.(check bool) "unknown name" true (At.cause_of_name "bogus" = None)

let test_scale_divisible () =
  for width = 1 to 16 do
    Alcotest.(check int)
      (Printf.sprintf "scale %% %d" width)
      0 (At.scale mod width)
  done

(* --- ledger mechanics ---------------------------------------------------- *)

let test_check_detects_drift () =
  let a = At.create () in
  At.add_cycles a At.Committed_work ~tier:At.Interp ~trace:0 ~pc:0 ~cycles:3;
  (match At.check a ~cycles:3L with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "drift detected" true
    (match At.check a ~cycles:4L with Error _ -> true | Ok () -> false)

let test_folded_format () =
  let a = At.create () in
  At.set_tier a ~entry:0x100 At.Trace;
  At.enter a ~entry:0x100;
  At.add_here_cycles a At.Committed_work ~pc:0x100 ~cycles:7;
  let buf = Buffer.create 64 in
  At.folded a ~kernel:"k" ~top:0 buf;
  let line = String.trim (Buffer.contents buf) in
  Alcotest.(check string) "folded stack line"
    (Printf.sprintf "k;trace;trace_0x100;pc_0x100;committed-work %d"
       (7 * At.scale))
    line

(* --- end-to-end attribution --------------------------------------------- *)

let test_v1_fence_vs_unsafe () =
  let asm = Lazy.force v1_asm in
  let ru, au = run_attributed Gb_core.Mitigation.Unsafe asm in
  let rf, af = run_attributed Gb_core.Mitigation.Fence_on_detect asm in
  Alcotest.(check int) "no fence-stall under Unsafe" 0 (units au At.Fence_stall);
  Alcotest.(check bool) "fence-stall under fence-on-detect" true
    (units af At.Fence_stall > 0);
  (* the acceptance criterion: >= 95% of the fence-vs-unsafe cycle delta
     is explained by the fence-stall + lost-ILP buckets *)
  let delta_units c = units af c - units au c in
  let explained =
    delta_units At.Fence_stall + delta_units At.Nospec_serialization
  in
  let total =
    Int64.to_int
      (Int64.mul
         (Int64.sub rf.Gb_system.Processor.cycles
            ru.Gb_system.Processor.cycles)
         (Int64.of_int At.scale))
  in
  Alcotest.(check bool) "slowdown exists" true (total > 0);
  let share = float_of_int explained /. float_of_int total in
  if share < 0.95 then
    Alcotest.failf "only %.1f%% of the slowdown delta explained"
      (100. *. share)

let test_v1_rollback_and_tiers () =
  let asm = Lazy.force v1_asm in
  let r, a = run_attributed Gb_core.Mitigation.Unsafe asm in
  Alcotest.(check bool) "interp cycles attributed" true
    (units a At.Interp_fallback > 0);
  Alcotest.(check bool) "committed work attributed" true
    (units a At.Committed_work > 0);
  (if Int64.compare r.Gb_system.Processor.rollbacks 0L > 0 then
     Alcotest.(check bool) "rollback penalty attributed" true
       (units a At.Mcb_rollback > 0));
  (* every v4-style conflict notes the store pc that flagged it *)
  if r.Gb_system.Processor.rollbacks > 0L then
    Alcotest.(check bool) "conflict pcs recorded" true
      (At.conflict_pcs a <> [])

(* Every trace exit returns to the dispatcher, so the refill penalty of
   every side exit is dispatcher-exit cost and of every rollback MCB
   rollback cost: nothing else may book either. *)
let test_exit_penalties () =
  let asm = Lazy.force v1_asm in
  let r, a = run_attributed Gb_core.Mitigation.Unsafe asm in
  let penalty =
    Gb_vliw.Machine.default_config.Gb_vliw.Machine.exit_penalty * At.scale
  in
  Alcotest.(check bool) "side exits taken" true
    (r.Gb_system.Processor.side_exits > 0L);
  Alcotest.(check int64) "every trace exit is dispatched"
    r.Gb_system.Processor.trace_runs r.Gb_system.Processor.dispatch_exits;
  Alcotest.(check int) "dispatcher-exit = side exits x penalty"
    (Int64.to_int r.Gb_system.Processor.side_exits * penalty)
    (units a At.Dispatcher_exit);
  Alcotest.(check int) "mcb-rollback = rollbacks x penalty"
    (Int64.to_int r.Gb_system.Processor.rollbacks * penalty)
    (units a At.Mcb_rollback)

(* The interpreter tier books one interp-fallback cycle per instruction
   it retires, and each L1D miss penalty it pays as cache-miss-stall. A
   run with both translation thresholds out of reach interprets every
   instruction and makes every cache access, so the L1D's own miss count
   prices its cache-miss-stall exactly. *)
let test_interp_tier () =
  let module P = Gb_system.Processor in
  let base = P.config_for Gb_core.Mitigation.Unsafe in
  let config =
    { base with
      P.engine =
        { base.P.engine with
          Gb_dbt.Engine.first_pass_threshold = max_int;
          hot_threshold = max_int } }
  in
  let gemm = List.hd Gb_workloads.Polybench.all in
  let obs = Gb_obs.Sink.create ~attrib:true () in
  let p =
    P.create ~config ~obs
      (Gb_kernelc.Compile.assemble gemm.Gb_workloads.Polybench.program)
  in
  let r = P.run p in
  let a = Option.get (Gb_obs.Sink.attrib obs) in
  let interp cause =
    List.fold_left
      (fun acc (row : At.row) ->
        if row.At.r_tier = At.Interp && row.At.r_cause = cause then
          acc + row.At.r_units
        else acc)
      0 (At.rows a)
  in
  Alcotest.(check int64) "every instruction interpreted"
    r.Gb_system.Processor.guest_insns r.Gb_system.Processor.interp_insns;
  Alcotest.(check bool) "interp-fallback >= one cycle per instruction" true
    (interp At.Interp_fallback
    >= Int64.to_int r.Gb_system.Processor.interp_insns * At.scale);
  let s = Gb_cache.Cache.stats (Gb_cache.Hierarchy.cache (P.hierarchy p)) in
  let misses = s.Gb_cache.Cache.read_misses + s.Gb_cache.Cache.write_misses in
  Alcotest.(check bool) "the interpreter misses" true (misses > 0);
  Alcotest.(check int) "cache-miss-stall = misses x miss penalty"
    (misses * base.P.hier.Gb_cache.Hierarchy.miss_penalty * At.scale)
    (interp At.Cache_miss_stall)

let test_shares_and_json () =
  let asm = Lazy.force v1_asm in
  let _, a = run_attributed Gb_core.Mitigation.Fence_on_detect asm in
  let shares = At.cause_shares a in
  Alcotest.(check int) "every cause present" (List.length At.all_causes)
    (List.length shares);
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0. shares in
  Alcotest.(check bool) "shares sum to 1" true (abs_float (sum -. 1.) < 1e-9);
  (* JSON renders and round-trips *)
  let json = Gb_util.Json.to_string (At.to_json a) in
  ignore (Gb_util.Json.of_string json)

(* --- satellites ---------------------------------------------------------- *)

let test_metrics_p95 () =
  let m = Gb_obs.Metrics.create () in
  for i = 1 to 100 do
    Gb_obs.Metrics.observe m "h" (float_of_int i)
  done;
  let s = Option.get (Gb_obs.Metrics.histogram_snapshot m "h") in
  Alcotest.(check bool) "p95 ordered" true
    (s.Gb_obs.Metrics.h_p90 <= s.Gb_obs.Metrics.h_p95
    && s.Gb_obs.Metrics.h_p95 <= s.Gb_obs.Metrics.h_p99);
  let json = Gb_util.Json.to_string (Gb_obs.Metrics.to_json m) in
  Alcotest.(check bool) "p95 serialized" true
    (let sub = "\"p95\"" in
     let n = String.length json and k = String.length sub in
     let rec find i = i + k <= n && (String.sub json i k = sub || find (i + 1)) in
     find 0)

let test_ring_dropped_accounting () =
  let obs = Gb_obs.Sink.create ~ring_capacity:4 () in
  for i = 1 to 10 do
    Gb_obs.Sink.event obs ~pc:i Gb_obs.Event.Rollback
  done;
  Alcotest.(check int) "dropped count" 6 (Gb_obs.Sink.dropped_events obs);
  let m = Option.get (Gb_obs.Sink.metrics obs) in
  Alcotest.(check int) "ring.dropped counter" 6
    (Gb_obs.Metrics.counter_value m "ring.dropped");
  match Gb_obs.Sink.trace_json obs with
  | Gb_util.Json.Obj fields ->
    Alcotest.(check bool) "droppedEvents in trace" true
      (List.assoc_opt "droppedEvents" fields = Some (Gb_util.Json.Int 6))
  | _ -> Alcotest.fail "trace_json not an object"

(* --- qcheck: conservation over random kernels × modes ------------------- *)

let kernel_gen =
  let open QCheck.Gen in
  let open Gb_kernelc.Ast in
  let c n = Const (Int64.of_int n) in
  let var = oneofl [ "a"; "b"; "c"; "d" ] in
  let leaf =
    oneof
      [ map (fun n -> c (n land 0xff)) small_nat; map (fun v -> Var v) var ]
  in
  let expr =
    sized_size (int_range 0 3)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map3
                   (fun op l r -> Bin (op, l, r))
                   (oneofl [ Add; Sub; Mul; And; Or; Xor ])
                   (self (n / 2)) (self (n / 2));
               ])
  in
  let stmt =
    oneof
      [
        map2 (fun v e -> Set (v, e)) var expr;
        map2
          (fun i e -> Arr_store ("buf", [ c (i land 7) ], e))
          small_nat expr;
        map2
          (fun e t -> If (Bin (Lt, Var "i", e), t, [ Set ("d", c 9) ]))
          expr
          (map (fun e -> [ Set ("b", e) ]) expr);
      ]
  in
  let body = list_size (int_range 1 5) stmt in
  map
    (fun stmts ->
      {
        arrays = [ { a_name = "buf"; a_ty = I64; a_dims = [ 8 ]; a_init = Zero } ];
        body =
          [
            Let ("a", c 1);
            Let ("b", c 2);
            Let ("c", c 3);
            Let ("d", c 4);
            For
              ( "i", c 0, c 64,
                stmts
                @ [
                    Set ("a", Bin (Add, Var "a", Var "i"));
                    Arr_store ("buf", [ Bin (And, Var "i", c 7) ], Var "a");
                  ] );
            Set ("a", Bin (Add, Var "a", Arr ("buf", [ c 3 ])));
          ];
        result = Bin (And, Var "a", c 255);
      })
    body

let prop_conservation =
  QCheck.Test.make ~count:25
    ~name:
      "random kernels x modes: sum(buckets) = cycles, fence-stall = 0 \
       under Unsafe"
    (QCheck.make kernel_gen)
    (fun kernel ->
      let asm = Gb_kernelc.Compile.assemble kernel in
      List.iter
        (fun mode ->
          let r, a = run_attributed mode asm in
          (match At.check a ~cycles:r.Gb_system.Processor.cycles with
          | Ok () -> ()
          | Error msg ->
            QCheck.Test.fail_reportf "mode %s: %s"
              (Gb_core.Mitigation.mode_name mode)
              msg);
          if mode = Gb_core.Mitigation.Unsafe && units a At.Fence_stall <> 0
          then
            QCheck.Test.fail_reportf "%d fence-stall units under Unsafe"
              (units a At.Fence_stall))
        Gb_core.Mitigation.all_modes;
      true)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_conservation ] in
  Alcotest.run "attrib"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "cause names round-trip" `Quick test_cause_names;
          Alcotest.test_case "scale divisible by widths" `Quick
            test_scale_divisible;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "check detects drift" `Quick
            test_check_detects_drift;
          Alcotest.test_case "folded format" `Quick test_folded_format;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "v1: fence delta explained" `Quick
            test_v1_fence_vs_unsafe;
          Alcotest.test_case "v1: tiers and rollbacks" `Quick
            test_v1_rollback_and_tiers;
          Alcotest.test_case "exit penalties by exit kind" `Quick
            test_exit_penalties;
          Alcotest.test_case "interpreter tier: instructions and misses"
            `Quick test_interp_tier;
          Alcotest.test_case "shares and JSON" `Quick test_shares_and_json;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "metrics p95" `Quick test_metrics_p95;
          Alcotest.test_case "ring dropped accounting" `Quick
            test_ring_dropped_accounting;
        ] );
      ("conservation", qsuite);
    ]
