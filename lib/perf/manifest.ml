type t = {
  schema_version : int;
  seq : int;
  rev : string;
  seed : int64;
  env : (string * string) list;
  config : (string * Gb_util.Json.t) list;
  metrics : (string * float) list;
  verdicts : (string * bool) list;
}

let current_version = 1

let sort_dedup l =
  (* stable sort + keep the last binding of a duplicated name *)
  let sorted = List.stable_sort (fun (a, _) (b, _) -> String.compare a b) l in
  let rec keep_last = function
    | (a, _) :: ((b, _) :: _ as rest) when a = b -> keep_last rest
    | x :: rest -> x :: keep_last rest
    | [] -> []
  in
  keep_last sorted

let default_env () =
  [
    ("ocaml_version", Sys.ocaml_version);
    ("os_type", Sys.os_type);
    ("word_size", string_of_int Sys.word_size);
  ]

let dirty_suffix = "-dirty"

let rev_of ~head ~dirty =
  match head with
  | None -> "unknown"
  | Some h -> if dirty then h ^ dirty_suffix else h

let is_dirty rev = String.ends_with ~suffix:dirty_suffix rev

(* The first line [cmd] prints and its exit status; [None] when it could
   not be started. *)
let command_line cmd =
  match Unix.open_process_in cmd with
  | exception _ -> None
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    Some (String.trim line, Unix.close_process_in ic)

(* [git diff --quiet HEAD] exits 0 when no tracked file differs from
   HEAD, 1 when one does; any other outcome is not a clean tree either,
   so only a 0 counts as clean. *)
let detect_rev () =
  let head =
    match command_line "git rev-parse --short HEAD 2>/dev/null" with
    | Some (line, Unix.WEXITED 0) when line <> "" -> Some line
    | Some _ | None -> None
  in
  let dirty () =
    match command_line "git diff --quiet HEAD -- 2>/dev/null" with
    | Some (_, Unix.WEXITED 0) -> false
    | Some _ | None -> true
  in
  rev_of ~head ~dirty:(Option.is_some head && dirty ())

let make ?(seq = 0) ?rev ?(seed = 1L) ?env ?(config = []) ?(verdicts = [])
    metrics =
  {
    schema_version = current_version;
    seq;
    rev = (match rev with Some r -> r | None -> detect_rev ());
    seed;
    env = (match env with Some e -> sort_dedup e | None -> default_env ());
    config = sort_dedup config;
    metrics = sort_dedup metrics;
    verdicts = sort_dedup verdicts;
  }

let metric t name = List.assoc_opt name t.metrics

let verdict t name = List.assoc_opt name t.verdicts

let expected_verdict name =
  match String.split_on_char '.' name with
  | "e1" :: _ :: mode :: _ when String.ends_with ~suffix:".leaked" name ->
    mode = "unsafe"
  | _ -> true

let failed_verdicts t =
  List.filter_map
    (fun (name, ok) -> if ok <> expected_verdict name then Some name else None)
    t.verdicts

let to_json t =
  let module J = Gb_util.Json in
  J.Obj
    [
      ("schema_version", J.Int t.schema_version);
      ("seq", J.Int t.seq);
      ("rev", J.String t.rev);
      ("seed", J.Int (Int64.to_int t.seed));
      ("env", J.Obj (List.map (fun (k, v) -> (k, J.String v)) t.env));
      ("config", J.Obj t.config);
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) t.metrics));
      ("verdicts", J.Obj (List.map (fun (k, v) -> (k, J.Bool v)) t.verdicts));
    ]

let field name conv j =
  match Option.bind (Gb_util.Json.get name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "manifest: missing or malformed %S" name)

let ( let* ) = Result.bind

let of_json j =
  let module J = Gb_util.Json in
  let* version = field "schema_version" J.get_int j in
  if version <> current_version then
    Error
      (Printf.sprintf
         "manifest: unsupported schema version %d (this reader understands \
          only version %d)"
         version current_version)
  else
    let* seq = field "seq" J.get_int j in
    let* rev = field "rev" J.get_str j in
    let* seed = field "seed" J.get_int j in
    let section name conv =
      let* fields = field name J.get_obj j in
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match conv v with
          | Some v -> Ok ((k, v) :: acc)
          | None ->
            Error (Printf.sprintf "manifest: malformed %s entry %S" name k))
        (Ok []) fields
      |> Result.map List.rev
    in
    let* env = section "env" J.get_str in
    let* config = field "config" J.get_obj j in
    let* metrics = section "metrics" J.get_float in
    let* verdicts = section "verdicts" J.get_bool in
    Ok
      {
        schema_version = version;
        seq;
        rev;
        seed = Int64.of_int seed;
        env = sort_dedup env;
        config = sort_dedup config;
        metrics = sort_dedup metrics;
        verdicts = sort_dedup verdicts;
      }

let to_string t = Gb_util.Json.to_string_pretty (to_json t)

let of_string s = Result.bind (Gb_util.Json.of_string s) of_json

let write path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string t);
      output_char oc '\n')

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> (
    match of_string contents with
    | Ok m -> Ok m
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e

let filename ~seq = Printf.sprintf "BENCH_%04d.json" seq

let seq_of_filename name =
  let base = Filename.basename name in
  if
    String.length base > String.length "BENCH_.json"
    && String.sub base 0 6 = "BENCH_"
    && Filename.check_suffix base ".json"
  then int_of_string_opt (String.sub base 6 (String.length base - 11))
  else None
