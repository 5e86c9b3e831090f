(* Smoke test of the host-time benchmark: a few jobs of every workload,
   with the printed metric names held to the ones BENCHMARK.json
   declares. *)

module H = Hostbench
module Json = Gb_util.Json
module M = Gb_core.Mitigation

let declared key =
  let text =
    In_channel.with_open_text "../../../BENCHMARK.json" In_channel.input_all
  in
  match Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match Option.bind (Json.get key j) Json.get_list with
    | None -> Alcotest.failf "BENCHMARK.json has no %s list" key
    | Some l ->
      List.sort compare
        (List.filter_map (fun m -> Option.bind (Json.get "name" m) Json.get_str) l))

let names (r : H.report) =
  List.sort compare (List.map (fun m -> m.H.m_name) r.H.metrics)

let bits (r : H.report) name =
  Int64.bits_of_float
    (List.find (fun m -> m.H.m_name = name) r.H.metrics).H.m_value

(* one set-up of the first [kinds] jobs, then one timed round *)
let run ~kinds w ~seed = H.measure [ (0., H.setup ~kinds w ~seed) ] ~seconds:0.

let ten_jobs w () =
  let r = run ~kinds:10 w ~seed:1 in
  Alcotest.(check (list string)) "metric names" (declared "end_to_end") (names r);
  Alcotest.(check int) "attempted" 10 r.H.attempted;
  Alcotest.(check int) "failed" 0 r.H.failed;
  Alcotest.(check bool) "correct" true r.H.correct

let exact_metrics w () =
  let a = run ~kinds:2 w ~seed:1 and b = run ~kinds:2 w ~seed:1
  and c = run ~kinds:2 w ~seed:2 in
  List.iter
    (fun m -> Alcotest.(check int64) (m ^ ", same seed") (bits a m) (bits b m))
    [ "sim_cycles"; "sim_slowdown_geomean" ];
  Alcotest.(check int64) "sim_cycles, other seed" (bits a "sim_cycles")
    (bits c "sim_cycles")

let per_layer w () =
  let r, trace = H.traced ~kinds:2 ~rounds:1 w ~seed:1 in
  Alcotest.(check (list string)) "metric names" (declared "per_layer") (names r);
  Alcotest.(check int) "failed" 0 r.H.failed;
  match Json.of_string (Json.to_string trace) with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match Option.bind (Json.get "traceEvents" j) Json.get_list with
    | Some (_ :: _) -> ()
    | Some [] | None -> Alcotest.fail "no spans in the trace")

let corrupted_checksum () =
  let s = H.setup ~kinds:1 H.Figure4_sweep ~seed:1 in
  Hashtbl.filter_map_inplace (fun _ (code, out) -> Some (code + 1, out)) s.H.expected;
  let r = H.measure [ (0., s) ] ~seconds:0. in
  Alcotest.(check int) "every job failed" r.H.attempted r.H.failed;
  Alcotest.(check bool) "not correct" false r.H.correct

let leaked mode secret =
  (Gb_attack.Runner.run
     ~config:(H.config_of H.Spectre_attack mode)
     ~mode ~secret
     (Gb_attack.Spectre_v1.program ~secret ()))
    .Gb_attack.Runner.correct_bytes

(* Why spectre-attack draws its secrets from 0x20..0x7e. The last two
   checks pin limits of the flush+reload harness; if it is ever fixed they
   fail, and the alphabet can widen. *)
let attack_alphabet () =
  let printable = " ~AZaz09" in
  Alcotest.(check int) "printable bytes leak under unsafe"
    (String.length printable) (leaked M.Unsafe printable);
  List.iter
    (fun mode ->
      Alcotest.(check int) (M.mode_name mode ^ " leaks nothing") 0
        (leaked mode printable))
    [ M.Fine_grained; M.Fence_on_detect; M.Min_cut; M.No_speculation ];
  Alcotest.(check int) "bytes 1..31 go unrecovered under unsafe" 0
    (leaked M.Unsafe "\001\010\031");
  Alcotest.(check int) "a 0 byte reads as recovered when nothing leaks" 1
    (leaked M.Fine_grained "\000")

let () =
  H.isolate_env ();
  let each f =
    List.map (fun w -> Alcotest.test_case (H.name w) `Quick (f w)) H.workloads
  in
  Alcotest.run "hostbench"
    [
      ("ten jobs", each ten_jobs);
      ("exact metrics", each exact_metrics);
      ("per-layer", each per_layer);
      ( "negative control",
        [ Alcotest.test_case "corrupted checksum" `Quick corrupted_checksum ] );
      ( "attack alphabet",
        [ Alcotest.test_case "printable secrets" `Quick attack_alphabet ] );
    ]
