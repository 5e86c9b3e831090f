open Baseline

let summary_line cmp =
  Printf.sprintf
    "perf %s vs BENCH_%04d (%s): %d regressed, %d improved, %d unchanged, %d \
     added, %d removed"
    (if cmp.passed then "OK" else "FAILED")
    cmp.base_seq cmp.base_rev cmp.regressed cmp.improved cmp.unchanged
    cmp.added cmp.removed

let fmt_value = function
  | None -> "-"
  | Some v ->
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.4f" v

let fmt_delta c =
  match (c.c_base, c.c_cur) with
  | Some _, Some _ ->
    if Float.is_integer c.c_delta && c.c_delta = 0. then "0%"
    else if c.c_delta = Float.infinity then "+inf"
    else Printf.sprintf "%+.2f%%" (100. *. c.c_delta)
  | _ -> "-"

let rule_name = function
  | Lower_better 0. -> "lower/exact"
  | Lower_better tol -> Printf.sprintf "lower/%.1f%%" (100. *. tol)
  | Band tol -> Printf.sprintf "band/%.1f%%" (100. *. tol)
  | Exact -> "exact"
  | Info -> "info"

(* regressions first, then the rest; unchanged cells capped *)
let visible_cells ~max_unchanged cmp =
  let pick status = List.filter (fun c -> c.c_status = status) cmp.cells in
  let unchanged =
    List.filteri (fun i _ -> i < max_unchanged) (pick Unchanged)
  in
  pick Regressed @ pick Removed @ pick Improved @ pick Added @ unchanged

let header = [ "cell"; "baseline"; "current"; "delta"; "rule"; "status" ]

let rows ~max_unchanged cmp =
  List.map
    (fun c ->
      [
        c.c_name;
        fmt_value c.c_base;
        fmt_value c.c_cur;
        fmt_delta c;
        rule_name c.c_rule;
        status_name c.c_status;
      ])
    (visible_cells ~max_unchanged cmp)

let to_ascii ?(max_unchanged = 0) cmp =
  let table =
    match rows ~max_unchanged cmp with
    | [] -> ""
    | rows -> Gb_util.Table.render ~header ~rows
  in
  table ^ "\n" ^ summary_line cmp ^ "\n"

let markdown_line cells = "| " ^ String.concat " | " cells ^ " |"

let markdown_table header rows =
  markdown_line header
  :: markdown_line (List.map (fun _ -> "---") header)
  :: List.map markdown_line rows

let to_markdown ?(max_unchanged = 0) cmp =
  Printf.sprintf "### Perf comparison: %s vs baseline BENCH_%04d (%s)\n\n"
    cmp.cur_rev cmp.base_seq cmp.base_rev
  ^ (match rows ~max_unchanged cmp with
    | [] -> "No cells to show.\n"
    | rws -> String.concat "\n" (markdown_table header rws) ^ "\n")
  ^ "\n" ^ summary_line cmp ^ "\n"

let to_json cmp =
  let module J = Gb_util.Json in
  let opt_float = function None -> J.Null | Some v -> J.Float v in
  J.Obj
    [
      ("baseline_rev", J.String cmp.base_rev);
      ("baseline_seq", J.Int cmp.base_seq);
      ("current_rev", J.String cmp.cur_rev);
      ("regressed", J.Int cmp.regressed);
      ("improved", J.Int cmp.improved);
      ("unchanged", J.Int cmp.unchanged);
      ("added", J.Int cmp.added);
      ("removed", J.Int cmp.removed);
      ("passed", J.Bool cmp.passed);
      ( "cells",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("name", J.String c.c_name);
                   ( "kind",
                     J.String
                       (match c.c_kind with
                       | `Metric -> "metric"
                       | `Verdict -> "verdict") );
                   ("rule", J.String (rule_name c.c_rule));
                   ("baseline", opt_float c.c_base);
                   ("current", opt_float c.c_cur);
                   ( "delta_rel",
                     if c.c_delta = Float.infinity then J.String "inf"
                     else J.Float c.c_delta );
                   ("status", J.String (status_name c.c_status));
                 ])
             cmp.cells) );
    ]

(* --- EXPERIMENTS.md's tables, rendered from a manifest's cells --------- *)

(* the middle of every metric name between [prefix] and [suffix] *)
let keys m ~prefix ~suffix =
  let lp = String.length prefix and ls = String.length suffix in
  List.filter_map
    (fun (name, _) ->
      let n = String.length name in
      if
        n > lp + ls
        && String.starts_with ~prefix name
        && String.ends_with ~suffix name
      then Some (String.sub name lp (n - lp - ls))
      else None)
    m.Manifest.metrics

let show m fmt name =
  match Manifest.metric m name with Some v -> fmt v | None -> "-"

let count v = Printf.sprintf "%.0f" v

let pct v = Printf.sprintf "%.1f%%" (100. *. v)

let overhead v = Printf.sprintf "%+.1f%%" (100. *. (v -. 1.))

let bold s = "**" ^ s ^ "**"

(* "recovered/total", marked when the attack counts as a leak *)
let recovered m ~got ~total ~leaked =
  match (Manifest.metric m got, Manifest.metric m total) with
  | Some g, Some t ->
    let s = Printf.sprintf "%.0f/%.0f" g t in
    if leaked g t then bold (s ^ " — LEAKED") else s
  | _ -> "-"

let modes = List.map Gb_core.Mitigation.mode_name Gb_core.Mitigation.all_modes

(* Figure 4's order: the Polybench kernels as the suite lists them, then
   the other programs (the attacks) in name order *)
let in_workload_order names =
  let kernels =
    List.map
      (fun (w : Gb_workloads.Polybench.t) -> w.Gb_workloads.Polybench.name)
      Gb_workloads.Polybench.all
  in
  List.filter (fun k -> List.mem k names) kernels
  @ List.filter (fun n -> not (List.mem n kernels)) names

let e2_programs m =
  in_workload_order
    (List.filter
       (fun k -> k <> "geomean")
       (keys m ~prefix:"slowdown.e2." ~suffix:".fine-grained"))

let e1 m =
  let row variant mode =
    let cell field = Printf.sprintf "table.e1.%s.%s.%s" variant mode field in
    (* the verdict, not the count, says whether the attack leaked *)
    let leaked _ _ =
      Manifest.verdict m (Printf.sprintf "e1.%s.%s.leaked" variant mode)
      = Some true
    in
    [
      variant;
      mode;
      recovered m ~got:(cell "bytes-recovered") ~total:(cell "bytes-total")
        ~leaked;
      show m count (cell "rollbacks");
      show m count (cell "patterns");
    ]
  in
  markdown_table
    [ "variant"; "mode"; "bytes recovered"; "rollbacks"; "patterns detected" ]
    (List.concat_map
       (fun variant -> List.map (row variant) modes)
       (keys m ~prefix:"table.e1." ~suffix:".unsafe.bytes-recovered"))

let e2 m =
  let slowdown program mode =
    Printf.sprintf "slowdown.e2.%s.%s" program mode
  in
  markdown_table
    [ "application"; "our approach"; "no speculation" ]
    (List.map
       (fun p ->
         [
           p;
           show m pct (slowdown p "fine-grained");
           show m pct (slowdown p "no-speculation");
         ])
       (e2_programs m)
    @ [
        [
          bold "geomean";
          bold (show m pct (slowdown "geomean" "fine-grained"));
          bold (show m pct (slowdown "geomean" "no-speculation"));
        ];
      ])

let e3 m =
  markdown_table
    [ "application"; "fence-on-detect"; "patterns detected" ]
    (List.map
       (fun p ->
         [
           p;
           show m pct (Printf.sprintf "slowdown.e2.%s.fence-on-detect" p);
           show m count (Printf.sprintf "table.e3.%s.patterns" p);
         ])
       (e2_programs m))

let e4 m =
  markdown_table
    [
      "workload"; "patterns detected"; "fine-grained"; "fence-on-detect";
      "min-cut"; "no speculation";
    ]
    (List.map
       (fun w ->
         let slowdown mode =
           show m overhead (Printf.sprintf "slowdown.e4.%s.%s" w mode)
         in
         [
           w;
           show m count (Printf.sprintf "table.e4.%s.patterns" w);
           slowdown "fine-grained";
           slowdown "fence-on-detect";
           slowdown "min-cut";
           slowdown "no-speculation";
         ])
       (keys m ~prefix:"slowdown.e4." ~suffix:".fine-grained"))

let e5 m =
  let row label cluster =
    let cell field = Printf.sprintf "table.e5.%s.%s" cluster field in
    [
      label;
      show m count (cell "lines");
      (match (Manifest.metric m (cell "min"), Manifest.metric m (cell "max")) with
      | Some lo, Some hi -> Printf.sprintf "%.0f–%.0f" lo hi
      | _ -> "-");
    ]
  in
  markdown_table
    [ "probe lines"; "lines"; "latency (cycles)" ]
    [ row "re-touched (hit)" "hit"; row "flushed (miss)" "miss" ]

let e6 m =
  let points =
    List.map
      (fun key ->
        let i = String.index key '.' in
        (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1)))
      (keys m ~prefix:"cycles.e6." ~suffix:"")
  in
  (* a parameter's values in numeric order where they are numbers *)
  let order (p, v) (q, w) =
    match (int_of_string_opt v, int_of_string_opt w) with
    | Some a, Some b when p = q -> Stdlib.compare a b
    | _ -> Stdlib.compare (p, v) (q, w)
  in
  markdown_table
    [
      "parameter"; "value"; "kernel cycles (unsafe)"; "no-spec slowdown";
      "v1"; "v4";
    ]
    (List.map
       (fun (param, value) ->
         let cell family rest =
           Printf.sprintf "%s.e6.%s.%s%s" family param value rest
         in
         let leaks v = if v > 0. then "leaks" else "safe" in
         [
           param;
           value;
           show m count (cell "cycles" "");
           show m pct (cell "slowdown" ".no-speculation");
           show m leaks (cell "table" ".v1-leaks");
           show m leaks (cell "table" ".v4-leaks");
         ])
       (List.sort order points))

let e7 m =
  markdown_table [ "mode"; "bits recovered" ]
    (List.map
       (fun mode ->
         let cell field = Printf.sprintf "table.e7.%s.%s" mode field in
         [
           mode;
           recovered m ~got:(cell "bits-recovered") ~total:(cell "bits-total")
             ~leaked:(fun got total -> got = total);
         ])
       modes)

let experiment_tables m =
  [
    ("## E1 — proof of concept (paper §V-A)", e1 m);
    ("## E2 — Figure 4: slowdown vs unsafe execution", e2 m);
    ("## E3 — fence-on-detect ablation (paper §V-B)", e3 m);
    ("## E4 — pointer-array matrix multiply (paper §V-B)", e4 m);
    ("## E5 — hit/miss separation (paper §V-A)", e5 m);
    ("## E6 — design-space ablations (extension, not in the paper)", e6 m);
    ( "## E7 — the translation-decision side channel (extension; the \
       paper's future work, executable)",
      e7 m );
  ]

let experiments_markdown m =
  String.concat ""
    (List.map
       (fun (heading, lines) ->
         heading ^ "\n\n" ^ String.concat "\n" lines ^ "\n\n")
       (experiment_tables m))
