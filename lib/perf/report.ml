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
  | Band tol -> Printf.sprintf "band/%.1fpp" (100. *. tol)
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

let to_markdown ?(max_unchanged = 0) cmp =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "### Perf comparison: %s vs baseline BENCH_%04d (%s)\n\n"
       cmp.cur_rev cmp.base_seq cmp.base_rev);
  (match rows ~max_unchanged cmp with
  | [] -> Buffer.add_string buf "No cells to show.\n"
  | rws ->
    let line cells = "| " ^ String.concat " | " cells ^ " |\n" in
    Buffer.add_string buf (line header);
    Buffer.add_string buf
      (line (List.map (fun _ -> "---") header));
    List.iter (fun r -> Buffer.add_string buf (line r)) rws);
  Buffer.add_string buf ("\n" ^ summary_line cmp ^ "\n");
  Buffer.contents buf

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
