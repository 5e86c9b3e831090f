type buf_op =
  | Baccess of {
      id : int;
      pc : int;
      addr : int;
      size : int;
      write : bool;
      speculative : bool;
      dependent : bool;
    }
  | Bflush of { id : int; pc : int; addr : int }

let op_id = function Baccess { id; _ } -> id | Bflush { id; _ } -> id

type pc_stats = { mutable records : int; mutable dependent : int }

(* The transient-line records of all runs, apart from the audit so that
   the sink's counter source holds them alone. *)
type line_counts = { mutable transient : int; mutable transient_dependent : int }

type t = {
  real : Cache.t;
  shadow : Cache.t;
  obs : Gb_obs.Sink.t;
  mutable buf : buf_op list;  (** current run, reverse execution order *)
  mutable run_region : int;
  spec_pcs : (int, unit) Hashtbl.t;
  flagged_pcs : (int, unit) Hashtbl.t;
  constrained_pcs : (int, unit) Hashtbl.t;
  transient_by_pc : (int, pc_stats) Hashtbl.t;
  sets_touched : (int, unit) Hashtbl.t;
  lines : line_counts;
}

let create ?(obs = Gb_obs.Sink.noop) ~real () =
  let lines = { transient = 0; transient_dependent = 0 } in
  if Gb_obs.Sink.is_active obs then
    Gb_obs.Sink.add_counters obs (fun () ->
        [ ("audit.transient_lines", lines.transient);
          ("audit.dependent_transient_lines", lines.transient_dependent) ]);
  {
    real;
    shadow = Cache.create (Cache.config real);
    obs;
    buf = [];
    run_region = 0;
    spec_pcs = Hashtbl.create 16;
    flagged_pcs = Hashtbl.create 16;
    constrained_pcs = Hashtbl.create 16;
    transient_by_pc = Hashtbl.create 16;
    sets_touched = Hashtbl.create 16;
    lines;
  }

let commit_access t ~addr ~size ~write =
  ignore (Cache.access_range t.shadow ~addr ~size ~write)

let commit_flush t ~addr = Cache.flush_line t.shadow addr

let begin_run t ~region =
  t.buf <- [];
  t.run_region <- region

let run_access t ~id ~pc ~addr ~size ~write ~speculative ~dependent =
  t.buf <- Baccess { id; pc; addr; size; write; speculative; dependent } :: t.buf

let run_flush t ~id ~pc ~addr = t.buf <- Bflush { id; pc; addr } :: t.buf

let note pcs ~pc = if not (Hashtbl.mem pcs pc) then Hashtbl.add pcs pc ()

let note_spec_load t ~pc = note t.spec_pcs ~pc

let note_flagged t ~pc = note t.flagged_pcs ~pc

let note_constrained t ~pc = note t.constrained_pcs ~pc

let record t ~pc ~line ~dependent =
  (let st =
     match Hashtbl.find_opt t.transient_by_pc pc with
     | Some st -> st
     | None ->
       let st = { records = 0; dependent = 0 } in
       Hashtbl.add t.transient_by_pc pc st;
       st
   in
   st.records <- st.records + 1;
   if dependent then st.dependent <- st.dependent + 1);
  let set_idx = Cache.set_index t.real line in
  if not (Hashtbl.mem t.sets_touched set_idx) then
    Hashtbl.add t.sets_touched set_idx ();
  t.lines.transient <- t.lines.transient + 1;
  if dependent then
    t.lines.transient_dependent <- t.lines.transient_dependent + 1;
  if Gb_obs.Sink.is_active t.obs then
    Gb_obs.Sink.event t.obs ~pc ~region:t.run_region
      (Gb_obs.Event.Transient_line { addr = line; set_idx; dependent })

(* Lines covered by a possibly line-straddling access. *)
let lines_of t ~addr ~size =
  let first = Cache.line_of t.real addr in
  let last = Cache.line_of t.real (addr + size - 1) in
  if first = last then [ first ] else [ first; last ]

let end_run t ~exit_id =
  let ops = List.sort (fun a b -> compare (op_id a) (op_id b)) t.buf in
  t.buf <- [];
  let committed, transient = List.partition (fun o -> op_id o < exit_id) ops in
  List.iter
    (function
      | Baccess { addr; size; write; _ } -> commit_access t ~addr ~size ~write
      | Bflush { addr; _ } -> commit_flush t ~addr)
    committed;
  (* Diff each transient load against the shadow, at most one record per
     (pc, line) per run. Stores cannot execute transiently (they are
     pinned behind the last exit) but are skipped defensively. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (function
      | Baccess { pc; addr; size; write = false; dependent; _ } ->
        List.iter
          (fun line ->
            if not (Hashtbl.mem seen (pc, line)) then begin
              Hashtbl.add seen (pc, line) ();
              if Cache.contains t.real line && not (Cache.contains t.shadow line)
              then record t ~pc ~line ~dependent
            end)
          (lines_of t ~addr ~size)
      | Baccess _ | Bflush _ -> ())
    transient

let flagged_pc_list t =
  Hashtbl.fold (fun pc () acc -> pc :: acc) t.flagged_pcs []
  |> List.sort compare

let dependent_pcs t =
  Hashtbl.fold
    (fun pc st acc -> if st.dependent > 0 then pc :: acc else acc)
    t.transient_by_pc []
  |> List.sort compare

type summary = {
  spec_loads : int;
  flagged : int;
  constrained : int;
  transient_lines : int;
  dependent_lines : int;
  transient_pcs : int;
  true_positives : int;
  false_negatives : int;
  over_mitigations : int;
  precision : float;
  recall : float;
  over_fencing_rate : float;
  sets_touched : int list;
  shadow_divergence : int;
}

let summary t =
  let has_dep pc =
    match Hashtbl.find_opt t.transient_by_pc pc with
    | Some st -> st.dependent > 0
    | None -> false
  in
  (* Classification universe: every pc that was speculatively hoisted,
     flagged, or left dependent transient state. *)
  let universe = Hashtbl.create 16 in
  Hashtbl.iter (fun pc () -> note universe ~pc) t.spec_pcs;
  Hashtbl.iter (fun pc () -> note universe ~pc) t.flagged_pcs;
  Hashtbl.iter
    (fun pc st -> if st.dependent > 0 then note universe ~pc)
    t.transient_by_pc;
  let tp = ref 0 and fn = ref 0 and over = ref 0 in
  Hashtbl.iter
    (fun pc () ->
      let flagged = Hashtbl.mem t.flagged_pcs pc in
      match (flagged, has_dep pc) with
      | true, true -> incr tp
      | false, true -> incr fn
      | true, false -> incr over
      | false, false -> ()  (* hoisted benignly, correctly left alone *))
    universe;
  let flagged = Hashtbl.length t.flagged_pcs in
  let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den in
  let divergence =
    let real = Cache.lines t.real and shadow = Cache.lines t.shadow in
    let only l r = List.filter (fun x -> not (List.mem x r)) l in
    List.length (only real shadow) + List.length (only shadow real)
  in
  {
    spec_loads = Hashtbl.length t.spec_pcs;
    flagged;
    constrained = Hashtbl.length t.constrained_pcs;
    transient_lines = t.lines.transient;
    dependent_lines = t.lines.transient_dependent;
    transient_pcs = Hashtbl.length t.transient_by_pc;
    true_positives = !tp;
    false_negatives = !fn;
    over_mitigations = !over;
    precision = ratio !tp (!tp + !over);
    recall = ratio !tp (!tp + !fn);
    over_fencing_rate = (if flagged = 0 then 0.0 else ratio !over flagged);
    sets_touched =
      Hashtbl.fold (fun s () acc -> s :: acc) t.sets_touched []
      |> List.sort compare;
    shadow_divergence = divergence;
  }

let publish t =
  let s = summary t in
  if Gb_obs.Sink.is_active t.obs then begin
    let g name v = Gb_obs.Sink.set_gauge t.obs name (float_of_int v) in
    g "audit.spec_loads" s.spec_loads;
    g "audit.flagged" s.flagged;
    g "audit.constrained" s.constrained;
    g "audit.transient_pcs" s.transient_pcs;
    g "audit.true_positives" s.true_positives;
    g "audit.false_negatives" s.false_negatives;
    g "audit.over_mitigations" s.over_mitigations;
    g "audit.shadow_divergence" s.shadow_divergence;
    Gb_obs.Sink.set_gauge t.obs "audit.precision" s.precision;
    Gb_obs.Sink.set_gauge t.obs "audit.recall" s.recall;
    Gb_obs.Sink.set_gauge t.obs "audit.over_fencing_rate" s.over_fencing_rate
  end;
  s

let summary_to_json s =
  let module J = Gb_util.Json in
  J.Obj
    [
      ("spec_loads", J.Int s.spec_loads);
      ("flagged", J.Int s.flagged);
      ("constrained", J.Int s.constrained);
      ("transient_lines", J.Int s.transient_lines);
      ("dependent_lines", J.Int s.dependent_lines);
      ("transient_pcs", J.Int s.transient_pcs);
      ("true_positives", J.Int s.true_positives);
      ("false_negatives", J.Int s.false_negatives);
      ("over_mitigations", J.Int s.over_mitigations);
      ("precision", J.Float s.precision);
      ("recall", J.Float s.recall);
      ("over_fencing_rate", J.Float s.over_fencing_rate);
      ("sets_touched", J.List (List.map (fun x -> J.Int x) s.sets_touched));
      ("shadow_divergence", J.Int s.shadow_divergence);
    ]

let pp_summary ppf s =
  let open Format in
  fprintf ppf "speculative load pcs   %6d@," s.spec_loads;
  fprintf ppf "flagged by analysis    %6d@," s.flagged;
  fprintf ppf "actually constrained   %6d@," s.constrained;
  fprintf ppf "transient lines        %6d  (%d address-dependent)@,"
    s.transient_lines s.dependent_lines;
  fprintf ppf "distinct leaking pcs   %6d@," s.transient_pcs;
  fprintf ppf "true positives         %6d@," s.true_positives;
  fprintf ppf "false negatives        %6d@," s.false_negatives;
  fprintf ppf "over-mitigations       %6d@," s.over_mitigations;
  fprintf ppf "precision              %6.2f@," s.precision;
  fprintf ppf "recall                 %6.2f@," s.recall;
  fprintf ppf "over-fencing rate      %6.2f@," s.over_fencing_rate;
  fprintf ppf "cache sets touched     %6d@," (List.length s.sets_touched);
  fprintf ppf "shadow divergence      %6d" s.shadow_divergence
