type gauge = { mutable g : float }

(* Base-2 log-scale buckets: bucket 0 holds samples <= 1, bucket i holds
   samples in (2^(i-1), 2^i]. 64 buckets cover every finite positive
   magnitude the simulator produces (cycles, bytes, node counts). *)
let n_buckets = 64

let reservoir_capacity = 512

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  buckets : int array;
  reservoir : float array;
  mutable filled : int;  (** slots of [reservoir] in use *)
  rng : Gb_util.Rng.t;
}

type t = {
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  seed : int64;
}

let create ?(seed = 1L) () =
  {
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
    seed;
  }

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g.g <- v
  | None -> Hashtbl.add t.gauges name { g = v }

let gauge_value t name =
  Option.map (fun g -> g.g) (Hashtbl.find_opt t.gauges name)

let bucket_of v =
  if v <= 1. then 0
  else begin
    let i = ref 1 in
    let bound = ref 2. in
    while v > !bound && !i < n_buckets - 1 do
      incr i;
      bound := !bound *. 2.
    done;
    !i
  end

let observe t name v =
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
      let h =
        {
          count = 0;
          sum = 0.;
          min_v = infinity;
          max_v = neg_infinity;
          buckets = Array.make n_buckets 0;
          reservoir = Array.make reservoir_capacity 0.;
          filled = 0;
          rng = Gb_util.Rng.create t.seed;
        }
      in
      Hashtbl.add t.histograms name h;
      h
  in
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  (* reservoir sampling (Algorithm R): each of the [count] samples ends up
     retained with equal probability, so percentiles stay representative
     of the whole stream, not just its tail *)
  if h.filled < reservoir_capacity then begin
    h.reservoir.(h.filled) <- v;
    h.filled <- h.filled + 1
  end
  else
    let j = Gb_util.Rng.int h.rng h.count in
    if j < reservoir_capacity then h.reservoir.(j) <- v

type histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_mean : float;
  h_p50 : float;
  h_p90 : float;
  h_p95 : float;
  h_p99 : float;
  h_buckets : (float * int) list;
}

let snapshot_of h =
  let samples = Array.to_list (Array.sub h.reservoir 0 h.filled) in
  let pct p = Gb_util.Stats.percentile p samples in
  let bounds i = if i = 0 then 1. else Float.of_int (1 lsl i) in
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then buckets := (bounds i, h.buckets.(i)) :: !buckets
  done;
  {
    h_count = h.count;
    h_sum = h.sum;
    h_min = (if h.count = 0 then 0. else h.min_v);
    h_max = (if h.count = 0 then 0. else h.max_v);
    h_mean = (if h.count = 0 then 0. else h.sum /. float_of_int h.count);
    h_p50 = pct 0.5;
    h_p90 = pct 0.9;
    h_p95 = pct 0.95;
    h_p99 = pct 0.99;
    h_buckets = !buckets;
  }

let histogram_snapshot t name =
  Option.map snapshot_of (Hashtbl.find_opt t.histograms name)

let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let to_json t =
  let module J = Gb_util.Json in
  let gauges =
    List.map (fun (name, g) -> (name, J.Float g.g)) (sorted_bindings t.gauges)
  in
  let histograms =
    List.map
      (fun (name, h) ->
        let s = snapshot_of h in
        ( name,
          J.Obj
            [
              ("count", J.Int s.h_count);
              ("sum", J.Float s.h_sum);
              ("min", J.Float s.h_min);
              ("max", J.Float s.h_max);
              ("mean", J.Float s.h_mean);
              ("p50", J.Float s.h_p50);
              ("p90", J.Float s.h_p90);
              ("p95", J.Float s.h_p95);
              ("p99", J.Float s.h_p99);
              ( "buckets",
                J.List
                  (List.map
                     (fun (le, n) ->
                       J.Obj [ ("le", J.Float le); ("count", J.Int n) ])
                     s.h_buckets) );
            ] ))
      (sorted_bindings t.histograms)
  in
  J.Obj
    [
      ("gauges", J.Obj gauges);
      ("histograms", J.Obj histograms);
    ]
