type mode = Unsafe | Fine_grained | Fence_on_detect | Min_cut | No_speculation

let mode_name = function
  | Unsafe -> "unsafe"
  | Fine_grained -> "fine-grained"
  | Fence_on_detect -> "fence-on-detect"
  | Min_cut -> "min-cut"
  | No_speculation -> "no-speculation"

let all_modes =
  [ Unsafe; Fine_grained; Fence_on_detect; Min_cut; No_speculation ]

let mode_aliases =
  [
    ("fence", Fence_on_detect);
    ("fine", Fine_grained);
    ("mincut", Min_cut);
    ("nospec", No_speculation);
    ("no-spec", No_speculation);
  ]

let mode_of_string s =
  match List.find_opt (fun m -> mode_name m = s) all_modes with
  | Some m -> Ok m
  | None -> (
    match List.assoc_opt s mode_aliases with
    | Some m -> Ok m
    | None ->
      Error
        (Printf.sprintf "unknown mode %S (expected one of: %s)" s
           (String.concat ", " (List.map mode_name all_modes))))

let opt_of_mode = function
  | Unsafe | Fine_grained | Fence_on_detect | Min_cut ->
    Gb_ir.Opt_config.aggressive
  | No_speculation -> Gb_ir.Opt_config.no_speculation

type report = {
  patterns_found : int;
  loads_constrained : int;
  fences_inserted : int;
  rounds : int;
  flagged_pcs : int list;
  cut_plan : Leakcut.plan option;
}

let empty_report =
  {
    patterns_found = 0;
    loads_constrained = 0;
    fences_inserted = 0;
    rounds = 0;
    flagged_pcs = [];
    cut_plan = None;
  }

(* De-speculate one load: restore the dependencies the optimizer removed
   and drop its MCB tag (its chk becomes a dead check that never fires). *)
let constrain_load g id =
  let node = Gb_ir.Dfg.node g id in
  match Gb_ir.Dfg.spec_of node with
  | None -> invalid_arg "constrain_load: not a load"
  | Some spec ->
    (match spec.Gb_ir.Dfg.spec_prev_store with
    | Some store ->
      Gb_ir.Dfg.add_edge g ~from:store ~to_:id ~lat:1 ~kind:Gb_ir.Dfg.Emem
    | None -> ());
    (match spec.Gb_ir.Dfg.spec_prev_branch with
    | Some branch ->
      Gb_ir.Dfg.add_edge g ~from:branch ~to_:id ~lat:1 ~kind:Gb_ir.Dfg.Ectrl
    | None -> ());
    spec.Gb_ir.Dfg.tag <- None;
    spec.Gb_ir.Dfg.constrained <- true

(* Insert a full barrier immediately before node [id]: everything with a
   smaller (original) id completes first; nothing at or after [id] may be
   scheduled before the fence. *)
let insert_fence g ~lat id =
  let boundary = id in
  let fence =
    Gb_ir.Dfg.add_node g ~kind:Gb_ir.Dfg.Kfence ~srcs:[||]
      ~guest_pc:(Gb_ir.Dfg.node g id).Gb_ir.Dfg.guest_pc ()
  in
  (* Mitigation fences are appended at the end of the node array, so their
     ids do not reflect program position; connecting fences to each other
     could create cycles. Each fence only orders the original nodes. *)
  Gb_ir.Dfg.iter_nodes g (fun n ->
      let nid = n.Gb_ir.Dfg.id in
      match n.Gb_ir.Dfg.kind with
      | Gb_ir.Dfg.Kfence -> ()
      | _ ->
        if nid < boundary then
          Gb_ir.Dfg.add_edge g ~from:nid ~to_:fence
            ~lat:(Gb_ir.Build.latency_of lat n.Gb_ir.Dfg.kind)
            ~kind:Gb_ir.Dfg.Ectrl
        else
          Gb_ir.Dfg.add_edge g ~from:fence ~to_:nid ~lat:1 ~kind:Gb_ir.Dfg.Ectrl)

let apply ?(obs = Gb_obs.Sink.noop) ?(region = 0) ?(unsound_cut = false) mode
    ~lat g =
  match mode with
  | Unsafe | No_speculation -> empty_report
  | Min_cut ->
    (* One report-only poisoning pass first: the detector's verdict set
       (flagged pcs, pattern count) stays comparable with the other
       modes — the leakage audit and gadget scanner score against it —
       while the repairs themselves come from the global min cut. *)
    let { Poison.patterns; _ } = Poison.analyze g in
    let flagged_pcs =
      List.sort_uniq Int.compare
        (List.map (fun id -> (Gb_ir.Dfg.node g id).Gb_ir.Dfg.guest_pc) patterns)
    in
    List.iter
      (fun id ->
        Gb_obs.Sink.event obs ~pc:(Gb_ir.Dfg.node g id).Gb_ir.Dfg.guest_pc
          ~region (Gb_obs.Event.Poison_flagged { node = id }))
      patterns;
    let plan =
      Leakcut.apply ~unsound:unsound_cut ~lat ~constrain:(constrain_load g)
        ~fence:(fun id -> insert_fence g ~lat id)
        g
    in
    let constrained = plan.Leakcut.dep_reinserts + plan.Leakcut.masks in
    if Gb_obs.Sink.is_active obs then begin
      Gb_obs.Sink.observe obs "mitigation.rounds" 1.;
      if constrained > 0 then
        Gb_obs.Sink.event obs ~region
          (Gb_obs.Event.Mitigation_applied
             { constrained; fences = plan.Leakcut.fences })
    end;
    {
      patterns_found = List.length patterns;
      loads_constrained = constrained;
      fences_inserted = plan.Leakcut.fences;
      rounds = 1;
      flagged_pcs;
      cut_plan = Some plan;
    }
  | Fine_grained | Fence_on_detect ->
    let patterns_found = ref 0 in
    let constrained = ref 0 in
    let fences = ref 0 in
    let rounds = ref 0 in
    let flagged_pcs = ref [] in
    let rec fixpoint () =
      incr rounds;
      let { Poison.patterns; _ } = Poison.analyze g in
      match patterns with
      | [] -> ()
      | _ :: _ ->
        patterns_found := !patterns_found + List.length patterns;
        List.iter
          (fun id ->
            let pc = (Gb_ir.Dfg.node g id).Gb_ir.Dfg.guest_pc in
            flagged_pcs := pc :: !flagged_pcs;
            Gb_obs.Sink.event obs ~pc ~region
              (Gb_obs.Event.Poison_flagged { node = id });
            (match mode with
            | Fence_on_detect ->
              insert_fence g ~lat id;
              incr fences
            | Fine_grained | Min_cut | Unsafe | No_speculation -> ());
            constrain_load g id;
            incr constrained)
          patterns;
        fixpoint ()
    in
    fixpoint ();
    if Gb_obs.Sink.is_active obs then begin
      Gb_obs.Sink.observe obs "mitigation.rounds" (float_of_int !rounds);
      if !constrained > 0 then
        Gb_obs.Sink.event obs ~region
          (Gb_obs.Event.Mitigation_applied
             { constrained = !constrained; fences = !fences })
    end;
    {
      patterns_found = !patterns_found;
      loads_constrained = !constrained;
      fences_inserted = !fences;
      rounds = !rounds;
      (* a load can be re-flagged in a later fixpoint round (and distinct
         nodes can share a guest pc after unrolling): report each pc once *)
      flagged_pcs = List.sort_uniq Int.compare !flagged_pcs;
      cut_plan = None;
    }
