(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section V) on the simulated DBT processor.

     E1  proof-of-concept matrix   (§V-A)
     E2  Figure 4                  (slowdown vs unsafe execution)
     E3  fence ablation            (§V-B, "added a fence whenever ...")
     E4  pointer-array matmul      (§V-B, fine-grained 4% vs fence 15%)
     E5  hit/miss separation       (§V-A, in-order timing is stable)
     E6  design-space ablations    (extension)
     E7  translation-decision side channel (extension; the paper's
         future-work concern, executable)
     E8  eviction churn            (extension; every kernel with the
         default and a tiny code cache, and the E1 leakage matrix
         re-checked under the tiny cache)
     E9  static verification       (extension; the install-time translation
         verifier and the guest gadget scanner cross-checked against the
         runtime leakage audit)
     E10 differential gate         (extension; reference interpreter vs the
         full DBT processor on every workload and attack, clean and under
         deterministic fault injection, plus the oracle-sensitivity
         negative control)

   The harness prints tables only; `ghostbusters perf record` writes the
   machine-readable run manifest of the same experiments, and
   bench/host measures host time. *)

let pct f = Printf.sprintf "%.1f%%" (100. *. f)

let print_header title = Printf.printf "\n=== %s ===\n\n" title

(* transient-line count and false negatives from the leakage audit, "-"
   when the run was not audited *)
let audit_cols = function
  | None -> [ "-"; "-" ]
  | Some (s : Gb_cache.Audit.summary) ->
    [
      string_of_int s.Gb_cache.Audit.transient_lines;
      string_of_int s.Gb_cache.Audit.false_negatives;
    ]

let e1 ~seed ?modes () =
  print_header "E1: Spectre proof-of-concept matrix (secret leakage per mode)";
  let poc = Gb_experiments.Experiments.e1_poc_matrix ~audit:true ~seed ?modes () in
  let rows =
    List.map
      (fun (r : Gb_experiments.Experiments.poc_row) ->
        let o = r.Gb_experiments.Experiments.outcome in
        [
          r.Gb_experiments.Experiments.variant;
          Gb_core.Mitigation.mode_name r.Gb_experiments.Experiments.mode;
          Printf.sprintf "%d/%d" o.Gb_attack.Runner.correct_bytes
            o.Gb_attack.Runner.total_bytes;
          (if Gb_attack.Runner.succeeded o then "LEAKED" else "safe");
          Int64.to_string o.Gb_attack.Runner.result.Gb_system.Processor.cycles;
          Int64.to_string o.Gb_attack.Runner.result.Gb_system.Processor.rollbacks;
          string_of_int
            o.Gb_attack.Runner.result.Gb_system.Processor.patterns_found;
        ]
        @ audit_cols o.Gb_attack.Runner.result.Gb_system.Processor.audit)
      poc
  in
  Gb_util.Table.print
    ~header:
      [ "variant"; "mode"; "bytes recovered"; "verdict"; "cycles"; "rollbacks";
        "patterns"; "transient lines"; "audit FN" ]
    ~rows;
  print_string
    "\nExpected shape (paper SV-A): both variants leak the full secret on\n\
     the unsafe configuration and nothing under any countermeasure. The\n\
     audit columns confirm it microarchitecturally: unsafe runs leave\n\
     transient cache lines, and no mode has detector false negatives.\n";
  poc

(* the cycle-attribution ledger's dominant non-committed cause of the
   fence-on-detect run: where that mode's overhead actually goes *)
let top_overhead_cause (mc : Gb_experiments.Experiments.mode_cycles) =
  match
    List.assoc_opt "fence-on-detect" mc.Gb_experiments.Experiments.causes
  with
  | None -> "-"
  | Some shares -> (
    match
      List.sort
        (fun (_, a) (_, b) -> compare (b : float) a)
        (List.filter (fun (c, _) -> c <> "committed-work") shares)
    with
    | (cause, share) :: _ when share > 0. ->
      Printf.sprintf "%s %.0f%%" cause (100. *. share)
    | _ -> "-")

let e2 () =
  print_header "E2: Figure 4 - slowdown vs unsafe execution (lower is better)";
  let data = Gb_experiments.Experiments.e2_figure4 ~audit:true () in
  let rows =
    List.map
      (fun (mc : Gb_experiments.Experiments.mode_cycles) ->
        [
          mc.Gb_experiments.Experiments.w_name;
          Int64.to_string mc.Gb_experiments.Experiments.unsafe;
          pct
            (Gb_experiments.Experiments.slowdown mc
               ~mode:Gb_core.Mitigation.Fine_grained);
          pct
            (Gb_experiments.Experiments.slowdown mc
               ~mode:Gb_core.Mitigation.Min_cut);
          pct
            (Gb_experiments.Experiments.slowdown mc
               ~mode:Gb_core.Mitigation.No_speculation);
          top_overhead_cause mc;
        ])
      data
  in
  let avg mode = pct (Gb_experiments.Experiments.geomean_slowdown data ~mode) in
  Gb_util.Table.print
    ~header:
      [ "application"; "unsafe cycles"; "our approach"; "min-cut";
        "no speculation"; "top overhead cause (fence)" ]
    ~rows:
      (rows
      @ [
          [ "geomean"; "";
            avg Gb_core.Mitigation.Fine_grained;
            avg Gb_core.Mitigation.Min_cut;
            avg Gb_core.Mitigation.No_speculation; "" ];
        ]);
  print_string
    "\nExpected shape (paper Fig. 4): our approach ~100% everywhere;\n\
     turning speculation off costs on the order of +16% on average.\n";
  data

let e3 data =
  print_header "E3: fence-on-detect ablation (patterns are rare in real code)";
  let fence_rows = Gb_experiments.Experiments.e3_fence_rows data in
  let rows =
    List.map2
      (fun (name, fence_slowdown, patterns)
           (mc : Gb_experiments.Experiments.mode_cycles) ->
        [ name; pct fence_slowdown; string_of_int patterns ]
        @ audit_cols mc.Gb_experiments.Experiments.unsafe_audit)
      fence_rows data
  in
  Gb_util.Table.print
    ~header:
      [ "application"; "fence mode"; "patterns"; "transient lines (unsafe)";
        "audit FN" ]
    ~rows;
  print_string
    "\nExpected shape (paper SV-B): the Spectre pattern is not commonly\n\
     seen in the benchmark binaries, so even fences cost ~nothing there;\n\
     only the attack programs show detections (and, in the audit columns,\n\
     attacker-dependent transient cache lines).\n"

let e4 () =
  print_header "E4: pointer-array matrix multiply (double indirections)";
  let mc = Gb_experiments.Experiments.e4_matmul_ablation ~audit:true () in
  let s mode = pct (Gb_experiments.Experiments.slowdown mc ~mode) in
  Gb_util.Table.print
    ~header:
      [ "workload"; "unsafe cycles"; "fine-grained"; "fence"; "min-cut";
        "no spec"; "patterns"; "transient lines (unsafe)"; "audit FN" ]
    ~rows:
      [
        [
          mc.Gb_experiments.Experiments.w_name;
          Int64.to_string mc.Gb_experiments.Experiments.unsafe;
          s Gb_core.Mitigation.Fine_grained;
          s Gb_core.Mitigation.Fence_on_detect;
          s Gb_core.Mitigation.Min_cut;
          s Gb_core.Mitigation.No_speculation;
          string_of_int mc.Gb_experiments.Experiments.patterns;
        ]
        @ audit_cols mc.Gb_experiments.Experiments.unsafe_audit;
      ];
  print_string
    "\nExpected shape (paper SV-B): with frequent double indirection the\n\
     pattern fires often; the fine-grained countermeasure stays markedly\n\
     cheaper than fence insertion (paper: +4% vs +15%).\n"

let e5 () =
  print_header "E5: probe-latency separation (flush+reload discrimination)";
  let lat = Gb_experiments.Experiments.e5_hit_miss () in
  let hist = Hashtbl.create 16 in
  Array.iter
    (fun t ->
      Hashtbl.replace hist t
        (1 + Option.value ~default:0 (Hashtbl.find_opt hist t)))
    lat;
  let rows =
    Hashtbl.fold (fun t n acc -> (t, n) :: acc) hist []
    |> List.sort compare
    |> List.map (fun (t, n) ->
           [ string_of_int t; string_of_int n; String.make (min n 60) '#' ])
  in
  Gb_util.Table.print ~header:[ "latency (cycles)"; "lines"; "" ] ~rows;
  print_string
    "\nExpected shape (paper SV-A): in-order execution gives stable\n\
     timings - cached lines and missing lines form two disjoint clusters\n\
     separated by the miss penalty.\n"

let e6 () =
  print_header
    "E6: design-space ablations (extension beyond the paper's evaluation)";
  List.iter
    (fun (title, rows) ->
      Printf.printf "%s:\n" title;
      let table_rows =
        List.map
          (fun (r : Gb_experiments.Ablations.row) ->
            [
              r.Gb_experiments.Ablations.value;
              Int64.to_string r.Gb_experiments.Ablations.unsafe_cycles;
              pct r.Gb_experiments.Ablations.no_spec_slowdown;
              (if r.Gb_experiments.Ablations.v1_leaks then "LEAKS" else "safe");
              (if r.Gb_experiments.Ablations.v4_leaks then "LEAKS" else "safe");
            ])
          rows
      in
      Gb_util.Table.print
        ~header:
          [ (List.hd rows).Gb_experiments.Ablations.param;
            "kernel cycles (unsafe)"; "no-spec slowdown"; "v1"; "v4" ]
        ~rows:table_rows;
      print_newline ())
    (Gb_experiments.Ablations.all ());
  print_string
    "Reading guide: without an MCB, Spectre v4 is impossible by\n\
     construction (no memory speculation) while v1 remains; a hot\n\
     threshold above the attack's training count keeps the victim on\n\
     the (non-speculative) interpreter, and a very low one translates\n\
     before the branch bias is trustworthy; without unrolling,\n\
     speculation buys little; with a 16 KiB L1D the 32 KiB probe array\n\
     cannot survive the probe loop, breaking flush+reload extraction;\n\
     and conflict-driven adaptive de-speculation (off in the paper's\n\
     configuration) both repairs kernels that misspeculate (nussinov)\n\
     and starves the v4 gadget, which rolls back on every round.\n"

let e7 () =
  print_header
    "E7: translation-decision side channel (the paper's future work, \
     executable)";
  let rows =
    List.map
      (fun (mode, (o : Gb_attack.Translation_channel.outcome)) ->
        [
          Gb_core.Mitigation.mode_name mode;
          Printf.sprintf "%d/%d bits"
            o.Gb_attack.Translation_channel.correct_bits
            o.Gb_attack.Translation_channel.total_bits;
          (if o.Gb_attack.Translation_channel.correct_bits
              = o.Gb_attack.Translation_channel.total_bits
           then "LEAKED"
           else "partial/safe");
        ])
      (Gb_experiments.Experiments.e7_translation_channel ())
  in
  Gb_util.Table.print ~header:[ "mode"; "bits recovered"; "verdict" ] ~rows;
  print_string
    "\nThe victim's secret steers only a branch DIRECTION; the DBT engine\n\
     specialises the hot trace on it, and timing both directions of the\n\
     same code reveals which one was trained. No speculative load with a\n\
     poisoned address exists, so the poisoning countermeasure (rightly)\n\
     finds nothing - every mode leaks. This is the channel the paper's\n\
     conclusion flags: optimization decisions themselves must not depend\n\
     on secrets.\n"

let e8 ~seed ?modes () =
  print_header
    (Printf.sprintf
       "E8: eviction churn (default vs %d-bundle code cache, unsafe)"
       Gb_experiments.Experiments.e8_tiny_capacity);
  let rows = Gb_experiments.Experiments.e8_eviction () in
  let f1 v = Printf.sprintf "%.2f" v in
  Gb_util.Table.print
    ~header:
      [ "application"; "guest insns"; "translations/1k"; "tiny: /1k";
        "tiny: evictions"; "arch eq" ]
    ~rows:
      (List.map
         (fun (r : Gb_experiments.Experiments.churn_row) ->
           let open Gb_experiments.Experiments in
           [
             r.c_name;
             Int64.to_string r.c_guest_insns;
             f1 (per_1k r.c_translations r.c_guest_insns);
             f1 (per_1k r.c_tiny_translations r.c_guest_insns);
             string_of_int r.c_tiny_evictions;
             (if r.c_arch_equal then "yes" else "NO");
           ])
         rows);
  print_string
    "\nExpected shape: the default cache never evicts, so each hot region\n\
     is translated about once; the tiny cache evicts and re-translates\n\
     wherever a kernel's hot code outgrows it (heat-3d, syr2k, doitgen,\n\
     jacobi-2d), yet every kernel ends with the same exit code and\n\
     output. translations/1k is the perf gate's cell for a thrashing\n\
     code cache: cycles barely move.\n";
  (* the leakage matrix must not change when eviction churn is forced:
     re-run E1 with a tiny code cache and diff the verdicts *)
  Gb_experiments.Experiments.e1_poc_matrix ~audit:true ~seed
    ~cc_capacity:Gb_experiments.Experiments.e8_tiny_capacity ?modes ()

let e9 ?modes () =
  print_header
    "E9: static verification (translation verifier + gadget scanner vs \
     runtime audit)";
  let open Gb_experiments.Experiments in
  let data = e9_verify ?modes () in
  let pcs l = String.concat "," (List.map (Printf.sprintf "0x%x") l) in
  Gb_util.Table.print
    ~header:
      [ "attack"; "mode"; "checked"; "violations"; "violation pcs";
        "audit dependent pcs"; "uncovered" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.v_name;
             Gb_core.Mitigation.mode_name r.v_mode;
             string_of_int r.v_checked;
             string_of_int r.v_violations;
             pcs r.v_violation_pcs;
             pcs r.v_dependent_pcs;
             (if r.v_uncovered = [] then "none" else pcs r.v_uncovered);
           ])
         data.e9_attacks);
  let silent, noisy =
    List.partition (fun r -> r.v_violations = 0) data.e9_workloads
  in
  Printf.printf
    "\nPolybench under %s: %d/%d verified runs silent%s\n"
    (String.concat "+" (List.map Gb_core.Mitigation.mode_name e9_workload_modes))
    (List.length silent)
    (List.length data.e9_workloads)
    (if noisy = [] then ""
     else
       " -- VIOLATIONS in "
       ^ String.concat ", "
           (List.map
              (fun r ->
                Printf.sprintf "%s/%s" r.v_name
                  (Gb_core.Mitigation.mode_name r.v_mode))
              noisy));
  print_newline ();
  Gb_util.Table.print
    ~header:
      [ "binary"; "gadgets"; "scanner dep pcs"; "runtime flagged";
        "precision"; "recall" ]
    ~rows:
      (List.map
         (fun s ->
           [
             s.s_name;
             string_of_int (List.length s.s_report.Gb_verify.Scanner.gadgets);
             pcs (Gb_verify.Scanner.dep_pcs s.s_report);
             pcs s.s_flagged;
             Printf.sprintf "%.2f" s.s_score.Gb_verify.Scanner.precision;
             Printf.sprintf "%.2f" s.s_score.Gb_verify.Scanner.recall;
           ])
         data.e9_scans);
  print_string
    "\nExpected shape: the verifier is silent under every constraining\n\
     mode (the schedules it re-derives speculation from are safe by\n\
     construction) and flags exactly the loads whose transient lines the\n\
     unsafe audit observed (uncovered = none, i.e. zero static false\n\
     negatives). The scanner, working on the raw guest binary with no\n\
     execution, must cover every runtime-flagged pc (recall 1.0);\n\
     precision below 1.0 is the price of static over-approximation.\n"

let e10 ~seed ?modes () =
  print_header
    "E10: differential gate (reference interpreter vs DBT, with fault \
     injection)";
  let m = Gb_diff.Matrix.run ~seed ?modes () in
  (* one line per workload: worst case across modes and inject variants *)
  let by_workload = Hashtbl.create 32 in
  List.iter
    (fun (r : Gb_diff.Matrix.row) ->
      let prev =
        Option.value ~default:[]
          (Hashtbl.find_opt by_workload r.Gb_diff.Matrix.r_workload)
      in
      Hashtbl.replace by_workload r.Gb_diff.Matrix.r_workload (r :: prev))
    (List.filter
       (fun (r : Gb_diff.Matrix.row) ->
         r.Gb_diff.Matrix.r_inject <> "mcb-suppress:1")
       m.Gb_diff.Matrix.rows);
  let rows =
    Hashtbl.fold (fun name rs acc -> (name, rs) :: acc) by_workload []
    |> List.sort compare
    |> List.map (fun (name, rs) ->
           let runs = List.length rs in
           let diverged =
             List.length
               (List.filter
                  (fun r -> r.Gb_diff.Matrix.r_divergence <> None)
                  rs)
           in
           let injected =
             List.fold_left
               (fun a r -> a + r.Gb_diff.Matrix.r_injected)
               0 rs
           in
           let recovered =
             List.fold_left
               (fun a r -> a + r.Gb_diff.Matrix.r_recovered)
               0 rs
           in
           let syncs =
             List.fold_left (fun a r -> a + r.Gb_diff.Matrix.r_syncs) 0 rs
           in
           [
             name;
             string_of_int runs;
             string_of_int syncs;
             string_of_int diverged;
             Printf.sprintf "%d/%d" recovered injected;
           ])
  in
  Gb_util.Table.print
    ~header:
      [ "workload"; "runs"; "syncs"; "divergences"; "faults recovered" ]
    ~rows;
  Format.printf "@.%a@." Gb_diff.Matrix.pp_summary m;
  print_string
    "\nExpected shape: zero divergences everywhere -- clean and under\n\
     every recoverable fault kind -- with every injected fault proven\n\
     recovered at a later agreement point; the deliberately unsound\n\
     mcb-suppress control MUST be caught (the oracle is not vacuous).\n"

(* --- Gb_obs metrics snapshot of an instrumented run -------------------- *)

(* The canonical instrumented run: the manifest's [counter.*] cells
   record the same run. *)
let metrics_snapshot ~seed () =
  print_header "Metrics snapshot: one instrumented run (Gb_obs)";
  let w = List.hd Gb_workloads.Polybench.all in
  let obs = Gb_obs.Sink.create ~seed () in
  let _ =
    Gb_system.Processor.run_program
      ~config:(Gb_system.Processor.config_for Gb_core.Mitigation.Fine_grained)
      ~obs
      (Gb_kernelc.Compile.assemble w.Gb_workloads.Polybench.program)
  in
  Printf.printf "workload: %s (fine-grained mode)\n%s\n"
    w.Gb_workloads.Polybench.name
    (Gb_util.Json.to_string_pretty (Gb_obs.Sink.metrics_json obs))

(* Every argument is parsed before any experiment runs, and anything
   unknown exits 1 with the list of accepted flags: a typo must not start
   the multi-minute harness on defaults.
   --modes M1,M2 restricts E1/E9's mode rows and E10's attack cells to the
   listed modes (any spelling {!Gb_core.Mitigation.mode_of_string}
   accepts). E2's mode_cycles rows always measure every mode: a slowdown
   is relative to the unsafe run, so dropping modes there would change
   the row type, not just filter it. *)
let parse_args () =
  let modes = ref None in
  let seed = ref 1L in
  let set_seed s =
    match Int64.of_string_opt s with
    | Some n -> seed := n
    | None ->
      raise (Arg.Bad (Printf.sprintf "--seed expects an integer, got %S" s))
  in
  let set_modes s =
    let parse n =
      match Gb_core.Mitigation.mode_of_string n with
      | Ok m -> m
      | Error e -> raise (Arg.Bad ("--modes: " ^ e))
    in
    modes :=
      Some
        (String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun n -> n <> "")
        |> List.map parse)
  in
  let specs =
    Arg.align
      [
        ( "--modes",
          Arg.String set_modes,
          "M comma-separated mitigation modes for E1, E9 and E10's attacks" );
        ("--seed", Arg.String set_seed, "N experiment seed (default 1)");
      ]
  in
  let usage = "usage: bench/main.exe [--modes M] [--seed N]" in
  let positional a =
    raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a))
  in
  match Arg.parse_argv Sys.argv specs positional usage with
  | () -> (!modes, !seed)
  | exception Arg.Bad msg ->
    prerr_string msg;
    exit 1
  | exception Arg.Help msg ->
    print_string msg;
    exit 0

let () =
  let modes, seed = parse_args () in
  Printf.printf
    "GhostBusters reproduction - benchmark harness\n\
     (paper: S. Rokicki, \"GhostBusters: Mitigating Spectre Attacks on a\n\
     DBT-Based Processor\", DATE 2020)\n";
  let poc = e1 ~seed ?modes () in
  let data = e2 () in
  e3 data;
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  let constrained_poc = e8 ~seed ?modes () in
  if not (Gb_experiments.Experiments.poc_verdicts_equal poc constrained_poc)
  then
    print_string
      "\nWARNING: E1 leakage verdicts CHANGED under the capacity-constrained \
       code cache!\n"
  else
    print_string
      "\nE1 leakage matrix and audit FN counts unchanged under the \
       capacity-constrained cache.\n";
  e9 ?modes ();
  e10 ~seed ?modes ();
  metrics_snapshot ~seed ()
