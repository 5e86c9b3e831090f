(* Host-time benchmark command line: one workload per process.

     main.exe --workload W --seed N [--seconds S] [--trace 0|1]

   prints every metric by name with its unit, then, as the last line, one
   JSON object {correct, attempted, failed, metrics}. --trace 1 runs the
   traced rounds instead and also writes a Chrome trace_event file to
   _build/host-trace-W.json. --workload all re-executes itself once per
   workload. *)

module H = Hostbench
module Json = Gb_util.Json

let print_report (r : H.report) =
  List.iter
    (fun m ->
      Printf.printf "%-38s %16.6f %s\n" m.H.m_name m.H.m_value m.H.m_unit)
    r.H.metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool r.H.correct);
            ("attempted", Json.Int r.H.attempted);
            ("failed", Json.Int r.H.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     ( m.H.m_name,
                       Json.Obj
                         [ ("value", Json.Float m.H.m_value);
                           ("unit", Json.String m.H.m_unit) ] ))
                   r.H.metrics) );
          ]))

let header w ~seed (r : H.report) =
  Printf.printf "# %s seed %d: %d jobs attempted, %d failed (failed_frac %g)\n"
    (H.name w) seed r.H.attempted r.H.failed
    (float_of_int r.H.failed /. float_of_int (max 1 r.H.attempted))

(* The Timer's in-program mean next to the replayed median of the same
   phase. *)
let print_reconciliation (r : H.report) =
  let value name =
    match List.find_opt (fun m -> m.H.m_name = name) r.H.metrics with
    | Some m -> m.H.m_value
    | None -> nan
  in
  Printf.printf "# %-16s %14s %14s\n" "phase" "timer mean us" "replay p50 us";
  List.iter
    (fun (phase, span) ->
      Printf.printf "# %-16s %14.2f %14.2f\n" phase
        (value ("timer." ^ phase ^ ".us_mean"))
        (value (span ^ ".us_p50")))
    H.timer_phases

(* dune's build directory, which version control already ignores *)
let trace_dir = "_build"

let run_one w ~seed ~seconds ~trace =
  H.isolate_env ();
  let r =
    if trace then begin
      let r, json = H.traced w ~seed in
      (try Unix.mkdir trace_dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let file = Filename.concat trace_dir ("host-trace-" ^ H.name w ^ ".json") in
      Out_channel.with_open_text file (fun oc ->
          output_string oc (Json.to_string json));
      Printf.eprintf "hostbench: wrote %s\n%!" file;
      r
    end
    else H.end_to_end w ~seed ~seconds
  in
  header w ~seed r;
  if trace then print_reconciliation r;
  print_report r

(* One process per workload, so each reports its own peak RSS. *)
let run_all ~argv =
  let failed =
    List.filter
      (fun w ->
        let args =
          Array.map (fun a -> if a = "all" then H.name w else a) argv
        in
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
            Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> false
        | _ -> true)
      H.workloads
  in
  if failed <> [] then exit 1

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.
  and trace = ref 0 in
  let usage =
    "main.exe --workload figure4-sweep|translate-churn|oracle-diff|spectre-attack|all \
     --seed N [--seconds S] [--trace 0|1]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W workload name, or all");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 run the traced rounds instead");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match (!workload, !seed) with
  | _, None -> prerr_endline usage; exit 2
  | "all", Some _ -> run_all ~argv:Sys.argv
  | name, Some seed -> (
    match H.of_name name with
    | Some w -> run_one w ~seed ~seconds:!seconds ~trace:(!trace <> 0)
    | None ->
      Printf.eprintf "unknown workload %S\n%s\n" name usage;
      exit 2)
