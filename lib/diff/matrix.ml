type row = {
  r_workload : string;
  r_mode : string;
  r_inject : string;
  r_seed : int64;
  r_clean : bool;
  r_divergence : string option;
  r_syncs : int;
  r_injected : int;
  r_recovered : int;
  r_ref_insns : int64;
}

type t = {
  rows : row list;
  divergences : int;
  unrecovered : int;
  sensitivity_detected : bool;
  seed : int64;
}

let default_attacks = [ "spectre-v1"; "spectre-v4" ]

let attack_program name =
  match name with
  | "spectre-v1" -> Some (Gb_attack.Spectre_v1.program ~secret:"SQUASH" ())
  | "spectre-v4" -> Some (Gb_attack.Spectre_v4.program ~secret:"SQUASH" ())
  | _ -> None

let default_injects =
  None
  :: List.filter_map
       (fun k ->
         if Gb_system.Inject.recoverable k then
           Some (Some [ (k, Gb_system.Inject.default_rate k) ])
         else None)
       Gb_system.Inject.all_kinds

let inject_name = function
  | None -> "none"
  | Some spec -> Gb_system.Inject.spec_name spec

let row_of ~workload ~mode ~inject ~seed (r : Oracle.report) =
  {
    r_workload = workload;
    r_mode = mode;
    r_inject = inject_name inject;
    r_seed = seed;
    r_clean = Oracle.clean r;
    r_divergence =
      Option.map
        (Format.asprintf "%a" Oracle.pp_divergence)
        r.Oracle.divergence;
    r_syncs = r.Oracle.syncs;
    r_injected = r.Oracle.injected;
    r_recovered = r.Oracle.recovered;
    r_ref_insns = r.Oracle.ref_insns;
  }

(* The oracle-sensitivity negative control: arm the one unsound kind
   (suppressed MCB conflicts commit stale speculative values) on the
   workload with real store-to-load conflicts — Spectre v4 under the
   unsafe mode, whose speculated loads genuinely misorder against stores
   and roll back — and check that the oracle DETECTS the corruption. One
   seed may not land a suppression on a value-changing conflict, so
   several are tried. *)
let sensitivity_check ?obs ~seed () =
  let program = Gb_attack.Spectre_v4.program ~secret:"SQUASH" () in
  let config = Gb_system.Processor.config_for Gb_core.Mitigation.Unsafe in
  let rec try_seed i =
    if i >= 8 then (false, [])
    else
      let s = Int64.add seed (Int64.of_int i) in
      let r =
        Oracle.run_kernel ?obs ~config ~seed:s
          ~inject:[ (Gb_system.Inject.Mcb_suppress, 1.0) ]
          program
      in
      let row =
        row_of ~workload:"spectre-v4" ~mode:"unsafe"
          ~inject:(Some [ (Gb_system.Inject.Mcb_suppress, 1.0) ])
          ~seed:s r
      in
      if r.Oracle.injected > 0 && not (Oracle.clean r) then (true, [ row ])
      else try_seed (i + 1)
  in
  try_seed 0

(* one cell of the matrix: every run builds its own processors from
   [config] *)
type job = {
  j_workload : string;
  j_mode : string;
  j_config : Gb_system.Processor.config;
  j_inject : Gb_system.Inject.spec option;
  j_program : Gb_riscv.Asm.program;
}

let run ?obs ?(seed = 1L) ?(attacks = default_attacks)
    ?(modes = Gb_core.Mitigation.all_modes)
    ?(kernels = List.map (fun k -> k.Gb_workloads.Polybench.name)
                  Gb_workloads.Polybench.all)
    ?(injects = default_injects) () =
  (* the full cell list, in the canonical (serial) order: attacks x every
     mitigation mode x every inject variant, then polybench kernels under
     the default configuration x every inject variant *)
  let jobs =
    List.concat_map
      (fun name ->
        match attack_program name with
        | None -> invalid_arg (Printf.sprintf "unknown attack %S" name)
        | Some ast ->
          let program = Gb_kernelc.Compile.assemble ast in
          List.concat_map
            (fun mode ->
              let config = Gb_system.Processor.config_for mode in
              List.map
                (fun inject ->
                  { j_workload = name;
                    j_mode = Gb_core.Mitigation.mode_name mode;
                    j_config = config; j_inject = inject; j_program = program })
                injects)
            modes)
      attacks
    @ List.concat_map
        (fun name ->
          match Gb_workloads.Polybench.by_name name with
          | None ->
            invalid_arg (Printf.sprintf "unknown polybench kernel %S" name)
          | Some k ->
            let program =
              Gb_kernelc.Compile.assemble k.Gb_workloads.Polybench.program
            in
            List.map
              (fun inject ->
                { j_workload = "polybench:" ^ name; j_mode = "default";
                  j_config = Gb_system.Processor.default_config;
                  j_inject = inject; j_program = program })
              injects)
        kernels
  in
  let run_one j =
    let r = Oracle.run ?obs ~config:j.j_config ?inject:j.j_inject ~seed
        j.j_program
    in
    row_of ~workload:j.j_workload ~mode:j.j_mode ~inject:j.j_inject ~seed r
  in
  let sound_rows = List.map run_one jobs in
  let sensitivity_detected, sens_rows = sensitivity_check ?obs ~seed () in
  (* the sensitivity rows are expected to diverge; everything before them
     is a soundness gate *)
  let rows = sound_rows @ sens_rows in
  {
    rows;
    divergences =
      List.length (List.filter (fun r -> r.r_divergence <> None) sound_rows);
    unrecovered =
      List.fold_left
        (fun acc r -> acc + (r.r_injected - r.r_recovered))
        0 sound_rows;
    sensitivity_detected;
    seed;
  }

let row_json r =
  Gb_util.Json.Obj
    [
      ("workload", Gb_util.Json.String r.r_workload);
      ("mode", Gb_util.Json.String r.r_mode);
      ("inject", Gb_util.Json.String r.r_inject);
      ("seed", Gb_util.Json.Int (Int64.to_int r.r_seed));
      ("clean", Gb_util.Json.Bool r.r_clean);
      ( "divergence",
        match r.r_divergence with
        | Some d -> Gb_util.Json.String d
        | None -> Gb_util.Json.Null );
      ("syncs", Gb_util.Json.Int r.r_syncs);
      ("injected", Gb_util.Json.Int r.r_injected);
      ("recovered", Gb_util.Json.Int r.r_recovered);
      ("ref_insns", Gb_util.Json.Int (Int64.to_int r.r_ref_insns));
    ]

let pass t = t.divergences = 0 && t.unrecovered = 0 && t.sensitivity_detected

let to_json t =
  Gb_util.Json.Obj
    [
      ("seed", Gb_util.Json.Int (Int64.to_int t.seed));
      ("rows", Gb_util.Json.List (List.map row_json t.rows));
      ("divergences", Gb_util.Json.Int t.divergences);
      ("unrecovered", Gb_util.Json.Int t.unrecovered);
      ("sensitivity_detected", Gb_util.Json.Bool t.sensitivity_detected);
      ("passed", Gb_util.Json.Bool (pass t));
    ]

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>%d differential runs, %d divergences, %d unrecovered faults;@ \
     sensitivity control %s@ => %s@]"
    (List.length t.rows) t.divergences t.unrecovered
    (if t.sensitivity_detected then "detected the unsound injection"
     else "FAILED to detect the unsound injection")
    (if pass t then "PASS" else "FAIL")
