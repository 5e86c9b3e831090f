type cause =
  | Committed_work
  | Fence_stall
  | Nospec_serialization
  | Mcb_rollback
  | Dispatcher_exit
  | Chain_transfer
  | Interp_fallback
  | Cache_miss_stall
  | Cut_protect

let all_causes =
  [
    Committed_work; Fence_stall; Nospec_serialization; Mcb_rollback;
    Dispatcher_exit; Chain_transfer; Interp_fallback; Cache_miss_stall;
    Cut_protect;
  ]

let n_causes = List.length all_causes

let cause_index = function
  | Committed_work -> 0
  | Fence_stall -> 1
  | Nospec_serialization -> 2
  | Mcb_rollback -> 3
  | Dispatcher_exit -> 4
  | Chain_transfer -> 5
  | Interp_fallback -> 6
  | Cache_miss_stall -> 7
  | Cut_protect -> 8

let cause_name = function
  | Committed_work -> "committed-work"
  | Fence_stall -> "fence-stall"
  | Nospec_serialization -> "nospec-serialization"
  | Mcb_rollback -> "mcb-rollback"
  | Dispatcher_exit -> "dispatcher-exit"
  | Chain_transfer -> "chain-transfer"
  | Interp_fallback -> "interp-fallback"
  | Cache_miss_stall -> "cache-miss-stall"
  | Cut_protect -> "cut-protect"

let cause_of_name n =
  List.find_opt (fun c -> cause_name c = n) all_causes

type tier = Interp | Block | Trace

let tier_name = function
  | Interp -> "interp"
  | Block -> "block"
  | Trace -> "trace"

(* lcm of 1..16: exact slot-level splits for every plausible issue width,
   and 4e9 cycles * scale still fits comfortably in a 63-bit int *)
let scale = 720720

type key = { k_cause : cause; k_tier : tier; k_trace : int; k_pc : int }

type cell = { mutable units : int }

type row = {
  r_cause : cause;
  r_tier : tier;
  r_trace : int;
  r_pc : int;
  r_units : int;
}

type t = {
  tbl : (key, cell) Hashtbl.t;
  totals : int array;  (** units per cause, [cause_index]-indexed *)
  tiers : (int, tier) Hashtbl.t;  (** entry pc -> tier of its translation *)
  xlats : (int, int) Hashtbl.t;  (** entry pc -> translations performed *)
  conflicts : (int, int) Hashtbl.t;  (** store pc -> conflicts flagged *)
  mutable cur_trace : int;
  mutable cur_tier : tier;
  (* the pipeline books the same few keys thousands of times in a row;
     one memoized cell per cause keeps the hot path off the hashtable *)
  memo : (key * cell) option array;
}

let create () =
  {
    tbl = Hashtbl.create 256;
    totals = Array.make n_causes 0;
    tiers = Hashtbl.create 64;
    xlats = Hashtbl.create 64;
    conflicts = Hashtbl.create 16;
    cur_trace = 0;
    cur_tier = Trace;
    memo = Array.make n_causes None;
  }

let set_tier t ~entry tier = Hashtbl.replace t.tiers entry tier

let enter t ~entry =
  t.cur_trace <- entry;
  t.cur_tier <-
    (match Hashtbl.find_opt t.tiers entry with Some tier -> tier | None -> Trace)

let cell_of t key =
  match Hashtbl.find_opt t.tbl key with
  | Some c -> c
  | None ->
    let c = { units = 0 } in
    Hashtbl.add t.tbl key c;
    c

let add t cause ~tier ~trace ~pc ~units =
  if units <> 0 then begin
    let ci = cause_index cause in
    let cell =
      match t.memo.(ci) with
      | Some (k, c)
        when k.k_tier == tier && k.k_trace = trace && k.k_pc = pc ->
        c
      | _ ->
        let key = { k_cause = cause; k_tier = tier; k_trace = trace; k_pc = pc } in
        let c = cell_of t key in
        t.memo.(ci) <- Some (key, c);
        c
    in
    cell.units <- cell.units + units;
    t.totals.(ci) <- t.totals.(ci) + units
  end

let add_cycles t cause ~tier ~trace ~pc ~cycles =
  add t cause ~tier ~trace ~pc ~units:(cycles * scale)

let add_here t cause ~pc ~units =
  add t cause ~tier:t.cur_tier ~trace:t.cur_trace ~pc ~units

let add_here_cycles t cause ~pc ~cycles =
  add_here t cause ~pc ~units:(cycles * scale)

let transfer t ~from_ ~to_ ~pc ~cycles =
  let units = cycles * scale in
  add_here t from_ ~pc ~units:(-units);
  add_here t to_ ~pc ~units

let bump tbl key by =
  match Hashtbl.find_opt tbl key with
  | Some n -> Hashtbl.replace tbl key (n + by)
  | None -> Hashtbl.add tbl key by

let note_translation t ~entry tier =
  set_tier t ~entry tier;
  bump t.xlats entry 1

let note_conflict t ~pc = bump t.conflicts pc 1

let total_units t = Array.fold_left ( + ) 0 t.totals

let total_cycles t = float_of_int (total_units t) /. float_of_int scale

let by_cause t =
  List.map (fun c -> (c, t.totals.(cause_index c))) all_causes

let cause_shares t =
  let total = float_of_int (total_units t) in
  List.map
    (fun c ->
      let u = float_of_int t.totals.(cause_index c) in
      (cause_name c, if total = 0. then 0. else u /. total))
    all_causes

let sample_cycles t =
  let committed = t.totals.(cause_index Committed_work) / scale in
  let total = total_units t / scale in
  (committed, total - committed)

let rows t =
  let l =
    Hashtbl.fold
      (fun k (c : cell) acc ->
        if c.units = 0 then acc
        else
          {
            r_cause = k.k_cause; r_tier = k.k_tier; r_trace = k.k_trace;
            r_pc = k.k_pc; r_units = c.units;
          }
          :: acc)
      t.tbl []
  in
  List.sort (fun a b -> compare (b.r_units, a.r_pc) (a.r_units, b.r_pc)) l

let sorted_counts tbl =
  List.sort
    (fun (pa, na) (pb, nb) -> compare (nb, pa) (na, pb))
    (Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) tbl [])

let conflict_pcs t = sorted_counts t.conflicts

let translations t = sorted_counts t.xlats

let check t ~cycles =
  let have = Int64.of_int (total_units t) in
  let want = Int64.mul (Int64.of_int scale) cycles in
  if Int64.equal have want then Ok ()
  else
    Error
      (Printf.sprintf
         "ledger holds %Ld units (%.3f cycles) but the clock ran %Ld cycles \
          (%Ld units); drift %+Ld units"
         have
         (Int64.to_float have /. float_of_int scale)
         cycles want (Int64.sub have want))

let cycles_of_units u = float_of_int u /. float_of_int scale

let to_json t =
  let module J = Gb_util.Json in
  let causes =
    List.map
      (fun (c, u) ->
        ( cause_name c,
          J.Obj
            [
              ("units", J.Int u);
              ("cycles", J.Float (cycles_of_units u));
              ( "share",
                J.Float
                  (let total = total_units t in
                   if total = 0 then 0.
                   else float_of_int u /. float_of_int total) );
            ] ))
      (by_cause t)
  in
  let row_json r =
    J.Obj
      [
        ("cause", J.String (cause_name r.r_cause));
        ("tier", J.String (tier_name r.r_tier));
        ("trace", J.Int r.r_trace);
        ("pc", J.Int r.r_pc);
        ("units", J.Int r.r_units);
        ("cycles", J.Float (cycles_of_units r.r_units));
      ]
  in
  let counts l =
    J.List
      (List.map
         (fun (pc, n) -> J.Obj [ ("pc", J.Int pc); ("count", J.Int n) ])
         l)
  in
  J.Obj
    [
      ("scale", J.Int scale);
      ("total_units", J.Int (total_units t));
      ("total_cycles", J.Float (total_cycles t));
      ("causes", J.Obj causes);
      ("rows", J.List (List.map row_json (rows t)));
      ("mcb_conflict_pcs", counts (conflict_pcs t));
      ("translations", counts (translations t));
    ]

let folded t ~kernel ~top buf =
  let rows = rows t in
  let rows =
    if top <= 0 then rows
    else List.filteri (fun i _ -> i < top) rows
  in
  List.iter
    (fun r ->
      Printf.bprintf buf "%s;%s;trace_0x%x;pc_0x%x;%s %d\n" kernel
        (tier_name r.r_tier) r.r_trace r.r_pc (cause_name r.r_cause)
        r.r_units)
    rows
