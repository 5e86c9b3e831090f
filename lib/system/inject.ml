type kind =
  | Evict
  | Mcb_spurious
  | Mcb_suppress
  | Translate_fail
  | Decode_flush

let all_kinds =
  [ Evict; Mcb_spurious; Mcb_suppress; Translate_fail; Decode_flush ]

let kind_name = function
  | Evict -> "evict"
  | Mcb_spurious -> "mcb"
  | Mcb_suppress -> "mcb-suppress"
  | Translate_fail -> "translate"
  | Decode_flush -> "decode"

let kind_of_name = function
  | "evict" -> Some Evict
  | "mcb" -> Some Mcb_spurious
  | "mcb-suppress" -> Some Mcb_suppress
  | "translate" -> Some Translate_fail
  | "decode" -> Some Decode_flush
  | _ -> None

let recoverable = function Mcb_suppress -> false | _ -> true

let default_rate = function
  | Evict -> 0.02
  | Mcb_spurious -> 0.05
  | Mcb_suppress -> 1.0
  | Translate_fail -> 0.25
  | Decode_flush -> 0.01

type spec = (kind * float) list

let parse s =
  let parse_one part =
    match String.index_opt part ':' with
    | None -> (
      match kind_of_name part with
      | Some k -> Ok (k, default_rate k)
      | None -> Error (Printf.sprintf "unknown fault kind %S" part))
    | Some i -> (
      let name = String.sub part 0 i in
      let rate = String.sub part (i + 1) (String.length part - i - 1) in
      match (kind_of_name name, float_of_string_opt rate) with
      | None, _ -> Error (Printf.sprintf "unknown fault kind %S" name)
      | _, None -> Error (Printf.sprintf "invalid rate %S" rate)
      | Some k, Some r ->
        if r < 0. || r > 1. then
          Error (Printf.sprintf "rate %g out of [0,1]" r)
        else Ok (k, r))
  in
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ',' (String.trim s))
  in
  if parts = [] then Error "empty injection spec"
  else
    List.fold_left
      (fun acc part ->
        match (acc, parse_one part) with
        | Error _, _ -> acc
        | _, Error e -> Error e
        | Ok l, Ok kr -> Ok (l @ [ kr ]))
      (Ok []) parts

let spec_name spec =
  String.concat ","
    (List.map (fun (k, r) -> Printf.sprintf "%s:%g" (kind_name k) r) spec)

let kind_index = function
  | Evict -> 0
  | Mcb_spurious -> 1
  | Mcb_suppress -> 2
  | Translate_fail -> 3
  | Decode_flush -> 4

let n_kinds = List.length all_kinds

type t = {
  rng : Gb_util.Rng.t;
  spec : spec;
  injected_k : int array;  (** per {!kind_index} *)
  recovered_k : int array;
}

let sum = Array.fold_left ( + ) 0

(* [prefix] with the total of [counts], then [prefix.KIND] for every
   kind counted so far *)
let counters prefix counts () =
  (prefix, sum counts)
  :: List.filter_map
       (fun k ->
         let n = counts.(kind_index k) in
         if n = 0 then None else Some (prefix ^ "." ^ kind_name k, n))
       all_kinds

let create ?(obs = Gb_obs.Sink.noop) ?(seed = 1L) spec =
  let injected_k = Array.make n_kinds 0 in
  if Gb_obs.Sink.is_active obs then
    Gb_obs.Sink.add_counters obs (counters "fault.injected" injected_k);
  {
    rng = Gb_util.Rng.create seed;
    spec;
    injected_k;
    recovered_k = Array.make n_kinds 0;
  }

let spec t = t.spec

let rate t kind =
  match List.assoc_opt kind t.spec with Some r -> r | None -> 0.

let sound t = rate t Mcb_suppress = 0.

(* one-in-a-million granularity is plenty for rates in [0,1] and keeps the
   draw integral (deterministic across platforms) *)
let resolution = 1_000_000

let fire t kind =
  let r = rate t kind in
  r > 0.
  && Gb_util.Rng.int t.rng resolution
     < int_of_float (r *. float_of_int resolution)
  &&
  (t.injected_k.(kind_index kind) <- t.injected_k.(kind_index kind) + 1;
   true)

let injected t = sum t.injected_k

let recovered t = sum t.recovered_k

let recovered_counters t = counters "fault.recovered" t.recovered_k

let injected_by_kind t kind = t.injected_k.(kind_index kind)

let recovered_by_kind t kind = t.recovered_k.(kind_index kind)

let by_kind t =
  List.filter_map
    (fun k ->
      let i = kind_index k in
      if t.injected_k.(i) = 0 && t.recovered_k.(i) = 0 then None
      else Some (k, t.injected_k.(i), t.recovered_k.(i)))
    all_kinds

let pending t = injected t - recovered t

let mark_all_recovered t = Array.blit t.injected_k 0 t.recovered_k 0 n_kinds

let env_var = "GHOSTBUSTERS_INJECT"

let seed_env_var = "GHOSTBUSTERS_INJECT_SEED"

let of_env ?(obs = Gb_obs.Sink.noop) () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> None
  | Some s -> (
    match parse s with
    | Error e ->
      (* a malformed env spec must not silently disable the harness *)
      invalid_arg (Printf.sprintf "%s: %s" env_var e)
    | Ok spec ->
      let seed =
        match Sys.getenv_opt seed_env_var with
        | Some v -> (
          match Int64.of_string_opt v with
          | Some s -> s
          | None -> invalid_arg (Printf.sprintf "%s: not an int64" seed_env_var))
        | None -> 1L
      in
      Some (create ~obs ~seed spec))
