type direction = Lower_better of float | Band of float | Exact | Info

let default_tol_cycles = 0.01

let default_tol_alloc = 0.05

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let rule_for name =
  if
    has_prefix ~prefix:"cycles." name
    || has_prefix ~prefix:"slowdown." name
    || has_prefix ~prefix:"translations_per_1k." name
  then Lower_better default_tol_cycles
  else if has_prefix ~prefix:"audit_fn." name then Lower_better 0.
  else if has_prefix ~prefix:"cause_cycles." name then Band default_tol_cycles
  else if has_prefix ~prefix:"alloc." name then Lower_better default_tol_alloc
  else Info

type status = Improved | Unchanged | Regressed | Added | Removed

let status_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "REGRESSED"
  | Added -> "added"
  | Removed -> "removed"

type cell = {
  c_name : string;
  c_kind : [ `Metric | `Verdict ];
  c_rule : direction;
  c_base : float option;
  c_cur : float option;
  c_delta : float;
  c_status : status;
}

type comparison = {
  base_rev : string;
  base_seq : int;
  cur_rev : string;
  cells : cell list;
  regressed : int;
  improved : int;
  unchanged : int;
  added : int;
  removed : int;
  passed : bool;
}

(* relative delta with the zero-baseline edge pinned down: 0 -> 0 is
   unchanged, 0 -> x>0 is an infinite relative increase *)
let rel_delta ~base ~cur =
  if base = 0. then if cur = 0. then 0. else Float.infinity
  else (cur -. base) /. base

let judge rule ~base ~cur =
  let delta = rel_delta ~base ~cur in
  match rule with
  | Info -> (delta, Unchanged)
  | Exact -> (delta, if cur = base then Unchanged else Regressed)
  | Band tol ->
    (* two-sided relative band: attributed cycles moving past [tol]
       either way went to or came from another cause. A zero baseline
       regresses on any nonzero value (delta = infinity), a nonzero one
       at 0 (delta = -1) *)
    (delta, if Float.abs delta > tol then Regressed else Unchanged)
  | Lower_better tol ->
    ( delta,
      if base = cur then Unchanged
      else if cur > base then if delta > tol then Regressed else Unchanged
      else if -.delta > tol then Improved
      else Unchanged )

let union_names base cur =
  List.sort_uniq String.compare (List.map fst base @ List.map fst cur)

let compare ~baseline current =
  let metric_cell name =
    let base = Manifest.metric baseline name in
    let cur = Manifest.metric current name in
    let rule = rule_for name in
    let delta, status =
      match (base, cur) with
      | Some b, Some c -> judge rule ~base:b ~cur:c
      | None, Some _ -> (0., Added)
      | Some _, None -> (0., Removed)
      | None, None -> assert false
    in
    {
      c_name = name;
      c_kind = `Metric;
      c_rule = rule;
      c_base = base;
      c_cur = cur;
      c_delta = delta;
      c_status = status;
    }
  in
  let verdict_cell name =
    let of_bool b = if b then 1. else 0. in
    let base = Option.map of_bool (Manifest.verdict baseline name) in
    let cur = Option.map of_bool (Manifest.verdict current name) in
    let delta, status =
      match (base, cur) with
      | Some b, Some c -> judge Exact ~base:b ~cur:c
      | None, Some _ -> (0., Added)
      | Some _, None -> (0., Removed)
      | None, None -> assert false
    in
    {
      c_name = name;
      c_kind = `Verdict;
      c_rule = Exact;
      c_base = base;
      c_cur = cur;
      c_delta = delta;
      c_status = status;
    }
  in
  let cells =
    List.map metric_cell
      (union_names baseline.Manifest.metrics current.Manifest.metrics)
    @ List.map verdict_cell
        (union_names baseline.Manifest.verdicts current.Manifest.verdicts)
  in
  let count s = List.length (List.filter (fun c -> c.c_status = s) cells) in
  let regressed = count Regressed in
  let removed = count Removed in
  {
    base_rev = baseline.Manifest.rev;
    base_seq = baseline.Manifest.seq;
    cur_rev = current.Manifest.rev;
    cells;
    regressed;
    improved = count Improved;
    unchanged = count Unchanged;
    added = count Added;
    removed;
    passed = regressed = 0 && removed = 0;
  }

let regressions cmp =
  List.filter (fun c -> c.c_status = Regressed) cmp.cells

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | names ->
    let manifest_files =
      Array.to_list names
      |> List.filter (fun n -> Manifest.seq_of_filename n <> None)
      |> List.sort String.compare
    in
    if manifest_files = [] then
      Error (Printf.sprintf "no BENCH_*.json manifests in %s" dir)
    else
      List.fold_left
        (fun acc name ->
          Result.bind acc (fun ms ->
              match Manifest.read (Filename.concat dir name) with
              | Ok m ->
                (* trust the in-file seq; fall back to the filename's *)
                let m =
                  if m.Manifest.seq <> 0 then m
                  else
                    {
                      m with
                      Manifest.seq =
                        Option.value ~default:0
                          (Manifest.seq_of_filename name);
                    }
                in
                Ok (m :: ms)
              | Error e -> Error e))
        (Ok []) manifest_files
      |> Result.map (fun ms ->
             List.sort
               (fun a b -> Stdlib.compare a.Manifest.seq b.Manifest.seq)
               ms)

let select ?rev manifests =
  match rev with
  | None ->
    List.fold_left
      (fun best m ->
        match best with
        | Some b when b.Manifest.seq >= m.Manifest.seq -> best
        | _ -> Some m)
      None manifests
  | Some rev ->
    (* a dirty rev names a tree no commit holds: it pins nothing *)
    let matches m =
      (not (Manifest.is_dirty m.Manifest.rev))
      && (not (Manifest.is_dirty rev))
      && (has_prefix ~prefix:rev m.Manifest.rev
         || has_prefix ~prefix:m.Manifest.rev rev)
    in
    List.find_opt matches manifests

let next_seq manifests =
  1 + List.fold_left (fun acc m -> max acc m.Manifest.seq) 0 manifests
