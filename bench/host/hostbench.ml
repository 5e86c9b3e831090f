module P = Gb_system.Processor
module M = Gb_core.Mitigation
module E = Gb_dbt.Engine
module Rng = Gb_util.Rng
module Stats = Gb_util.Stats
module Json = Gb_util.Json

(* Host seconds on the monotonic clock: nanosecond resolution, so
   sub-microsecond phases such as a first-pass translation still read. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type workload = Figure4_sweep | Translate_churn | Oracle_diff | Spectre_attack

let workloads = [ Figure4_sweep; Translate_churn; Oracle_diff; Spectre_attack ]

let name = function
  | Figure4_sweep -> "figure4-sweep"
  | Translate_churn -> "translate-churn"
  | Oracle_diff -> "oracle-diff"
  | Spectre_attack -> "spectre-attack"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* ---- environment and configuration ------------------------------------ *)

let isolate_env () =
  let var = Gb_system.Inject.env_var in
  (match Sys.getenv_opt var with
  | Some v when v <> "" ->
    Printf.eprintf "hostbench: overriding %s=%S with \"\" (no fault injection)\n%!"
      var v
  | Some _ | None -> ());
  Unix.putenv var "";
  List.iter
    (fun (var, pinned) ->
      match Sys.getenv_opt var with
      | Some v ->
        Printf.eprintf "hostbench: ignoring %s=%S (every config pins %s)\n%!"
          var v pinned
      | None -> ())
    [ ("GHOSTBUSTERS_NO_CHAIN", "chain = true");
      ("GHOSTBUSTERS_WORKERS", "workers = 0") ]

(* Every field a number depends on is set here rather than inherited from
   the environment-derived defaults: no worker domains, chaining on, and
   the code-cache capacity of the workload. *)
let config ~capacity ~verify mode =
  let base = P.config_for mode in
  {
    base with
    P.machine = { base.P.machine with Gb_vliw.Machine.chain = true };
    engine =
      {
        base.P.engine with
        E.workers = 0;
        verify;
        cache = { Gb_dbt.Code_cache.capacity; chain = true };
      };
  }

(* 384 bundles keeps the translation pipeline at about half of host time;
   the default capacity never evicts. *)
let churn_capacity = 384

let config_of w mode =
  match w with
  | Translate_churn ->
    config ~capacity:churn_capacity ~verify:E.Verify_enforce mode
  | Figure4_sweep | Oracle_diff | Spectre_attack ->
    config ~capacity:65536 ~verify:E.Verify_off mode

(* ---- workloads --------------------------------------------------------- *)

type program =
  | Fixed of Gb_riscv.Asm.program
  | Attack of (secret:string -> Gb_kernelc.Ast.program)

type kind = {
  label : string;
  prog : string;
  mode : M.mode;
  config : P.config;
  program : program;
}

let kernels =
  List.map
    (fun (k : Gb_workloads.Polybench.t) ->
      (k.Gb_workloads.Polybench.name, k.Gb_workloads.Polybench.program))
    (Gb_workloads.Polybench.all @ [ Gb_workloads.Polybench.matmul_ptr ])

(* The oracle runs the PoCs with one fixed secret, so its simulated cycles
   do not depend on the seed. *)
let poc_secret = "SQUASH"

let label prog mode = prog ^ "/" ^ M.mode_name mode

let kinds_of w =
  let fixed progs =
    List.map
      (fun (n, ast) -> (n, Fixed (Gb_kernelc.Compile.assemble ast)))
      progs
  in
  let programs =
    match w with
    | Figure4_sweep | Translate_churn -> fixed kernels
    | Oracle_diff ->
      fixed
        (kernels
        @ [ ("spectre-v1", Gb_attack.Spectre_v1.program ~secret:poc_secret ());
            ("spectre-v4", Gb_attack.Spectre_v4.program ~secret:poc_secret ()) ])
    | Spectre_attack ->
      [ ("spectre-v1",
         Attack (fun ~secret -> Gb_attack.Spectre_v1.program ~secret ()));
        ("spectre-v4",
         Attack (fun ~secret -> Gb_attack.Spectre_v4.program ~secret ())) ]
  in
  let modes =
    match w with
    | Translate_churn -> [ M.Fine_grained; M.Min_cut ]
    | Figure4_sweep | Oracle_diff | Spectre_attack -> M.all_modes
  in
  List.concat_map
    (fun (prog, program) ->
      List.map
        (fun mode ->
          { label = label prog mode; prog; mode; config = config_of w mode;
            program })
        modes)
    programs

let assemble k ~secret =
  match k.program with
  | Fixed asm -> asm
  | Attack build -> Gb_kernelc.Compile.assemble (build ~secret)

(* ---- rounds ------------------------------------------------------------ *)

let secret_len = 12

(* Round 0 is the set-up's warm-up. It attacks this fixed secret, so the
   first-run cycles it records do not depend on the seed. *)
let canonical_secret = "GhostBusters"

(* Printable ASCII only. Under unsafe v1 the flush+reload harness recovers
   no byte value in 1..31, and a 0 byte reads the same as "nothing
   recovered", so a full-range secret would fail jobs that leaked fine. *)
let draw_secret rng =
  String.init secret_len (fun _ -> Char.chr (0x20 + Rng.int rng 95))

type setup = {
  workload : workload;
  seed : int;
  kinds : kind array;
  expected : (string, int * string) Hashtbl.t;
      (** program -> exit code and output on the reference interpreter *)
  first : (string, int64) Hashtbl.t;
      (** kind label -> simulated cycles of its first run *)
  mutable setup_failed : int;
}

(* The seed picks the job order of each round and the round's attack
   secret, nothing else. *)
let plan s round =
  let rng =
    Rng.create
      (Int64.logxor
         (Int64.mul (Int64.of_int s.seed) 0x9E3779B97F4A7C15L)
         (Int64.of_int round))
  in
  let order = Array.copy s.kinds in
  for i = Array.length order - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  (order, if round = 0 then canonical_secret else draw_secret rng)

(* ---- one job ----------------------------------------------------------- *)

type answer =
  | Ran of P.t * P.result
  | Diffed of Gb_diff.Oracle.report
  | Attacked of Gb_attack.Runner.outcome

let call ?obs w k ~secret =
  match k.program with
  | Attack build ->
    Attacked
      (Gb_attack.Runner.run ~config:k.config ?obs ~audit:true ~mode:k.mode
         ~secret (build ~secret))
  | Fixed asm when w = Oracle_diff ->
    Diffed (Gb_diff.Oracle.run ~config:k.config ?obs asm)
  | Fixed asm ->
    let p = P.create ~config:k.config ?obs asm in
    Ran (p, P.run p)

let result_of = function
  | Ran (_, r) -> Some r
  | Diffed rep -> rep.Gb_diff.Oracle.dbt_result
  | Attacked o -> Some o.Gb_attack.Runner.result

let passes s k answer =
  let same_cycles (r : P.result) =
    match Hashtbl.find_opt s.first k.label with
    | Some c -> c = r.P.cycles
    | None ->
      Hashtbl.replace s.first k.label r.P.cycles;
      true
  in
  match answer with
  | Ran (_, r) ->
    let code, output = Hashtbl.find s.expected k.prog in
    r.P.exit_code = code && r.P.output = output && same_cycles r
  | Diffed rep -> (
    Gb_diff.Oracle.clean rep
    && match rep.Gb_diff.Oracle.dbt_result with
       | Some r -> same_cycles r
       | None -> false)
  | Attacked o ->
    (* cycles follow the secret, so the first round's are kept unchecked *)
    let r = o.Gb_attack.Runner.result in
    if not (Hashtbl.mem s.first k.label) then
      Hashtbl.replace s.first k.label r.P.cycles;
    let fn =
      match r.P.audit with
      | Some a -> a.Gb_cache.Audit.false_negatives
      | None -> 1
    in
    fn = 0
    && o.Gb_attack.Runner.correct_bytes
       = (if k.mode = M.Unsafe then o.Gb_attack.Runner.total_bytes else 0)

type job = { label : string; ms : float; insns : int64; ok : bool }

(* Every job starts on a fully collected heap, outside its timing. It then
   pays for the collections its own allocation triggers and for no other
   job's, so every run of a kind does the same work. *)
let run_job s k ~secret =
  Gc.full_major ();
  let t0 = now () in
  let answer = try Ok (call s.workload k ~secret) with e -> Error e in
  let ms = (now () -. t0) *. 1000. in
  match answer with
  | Ok a ->
    let ok = passes s k a in
    let insns = match result_of a with Some r -> r.P.guest_insns | None -> 0L in
    { label = k.label; ms; insns; ok }
  | Error _ -> { label = k.label; ms; insns = 0L; ok = false }

(* ---- set-up ------------------------------------------------------------ *)

let fresh_mem asm =
  let mem = Gb_riscv.Mem.create ~size:P.default_config.P.mem_size in
  Gb_riscv.Asm.load mem asm;
  mem

let reference asm =
  let i =
    Gb_riscv.Interp.create ~mem:(fresh_mem asm) ~pc:asm.Gb_riscv.Asm.entry ()
  in
  let code = Gb_riscv.Interp.run i in
  (code, Buffer.contents i.Gb_riscv.Interp.output)

let setup ?kinds w ~seed =
  let all = Array.of_list (kinds_of w) in
  let kinds =
    match kinds with
    | Some n -> Array.sub all 0 (min n (Array.length all))
    | None -> all
  in
  let s =
    { workload = w; seed; kinds; expected = Hashtbl.create 32;
      first = Hashtbl.create 128; setup_failed = 0 }
  in
  Array.iter
    (fun k ->
      match k.program with
      | Fixed asm when not (Hashtbl.mem s.expected k.prog) ->
        Hashtbl.replace s.expected k.prog (reference asm)
      | Fixed _ | Attack _ -> ())
    kinds;
  (* translate-churn runs no unsafe job: its slowdown baseline is one
     unsafe run per program under the same configuration *)
  Array.iter
    (fun k ->
      let base = label k.prog M.Unsafe in
      match k.program with
      | Fixed asm
        when w = Translate_churn && not (Hashtbl.mem s.first base) ->
        let r = P.run_program ~config:(config_of w M.Unsafe) asm in
        Hashtbl.replace s.first base r.P.cycles
      | Fixed _ | Attack _ -> ())
    kinds;
  let order, secret = plan s 0 in
  Array.iter
    (fun k ->
      if not (run_job s k ~secret).ok then s.setup_failed <- s.setup_failed + 1)
    order;
  s

(* ---- metrics ----------------------------------------------------------- *)

type metric = { m_name : string; m_unit : string; m_value : float }

type report = { attempted : int; failed : int; correct : bool; metrics : metric list }

let metric m_name m_unit m_value = { m_name; m_unit; m_value }

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

let ratio a b = if b = 0. then 0. else a /. b

(* Simulated time of one round: every kind once, at its first-run cycles. *)
let sim_cycles s =
  Array.fold_left
    (fun acc (k : kind) ->
      match Hashtbl.find_opt s.first k.label with
      | Some c -> acc +. Int64.to_float c
      | None -> acc)
    0. s.kinds

(* Figure 4's quantity: cycles(mode) / cycles(unsafe) per program, over
   the three countermeasures the paper compares. *)
let slowdown s =
  Stats.geomean
    (List.filter_map
       (fun k ->
         match k.mode with
         | M.Fine_grained | M.Fence_on_detect | M.Min_cut -> (
           match
             ( Hashtbl.find_opt s.first k.label,
               Hashtbl.find_opt s.first (label k.prog M.Unsafe) )
           with
           | Some c, Some u -> Some (Int64.to_float c /. Int64.to_float u)
           | _ -> None)
         | M.Unsafe | M.No_speculation -> None)
       (Array.to_list s.kinds))

(* VmHWM, the process's peak resident set. *)
let rss_peak_mb () =
  let vm_hwm line =
    try Some (Scanf.sscanf line "VmHWM: %d kB" Fun.id)
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map vm_hwm
  with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "hostbench: /proc/self/status has no VmHWM line"

let run_round s r =
  let order, secret = plan s r in
  Array.to_list (Array.map (fun k -> run_job s k ~secret) order)

(* A kind's host time is its fastest run. Its runs do the same work, GC
   included (see [run_job]), so what spreads them is the host: on the
   shared 2-core host, slow spells of seconds to minutes make every job
   30-50% slower. On the same runs, medians over all jobs spread by up to
   0.32 between runs, per-kind lower quartiles by up to 0.21 and per-kind
   minima by 0.02-0.05 outside oracle-diff (bench/host/README.md). *)
let kind_times s jobs =
  let runs = Hashtbl.create 128 in
  List.iter
    (fun j ->
      Hashtbl.replace runs j.label
        (j :: Option.value ~default:[] (Hashtbl.find_opt runs j.label)))
    jobs;
  List.map
    (fun (k : kind) ->
      let rs = Hashtbl.find runs k.label in
      ( List.fold_left (fun acc j -> Float.min acc j.ms) infinity rs,
        Stats.mean (List.map (fun j -> Int64.to_float j.insns) rs) ))
    (Array.to_list s.kinds)

let measure runs ~seconds =
  let s = snd (List.hd runs) in
  (* every set-up must reproduce the first one's simulated cycles *)
  let consistent =
    List.for_all (fun (_, s') -> sim_cycles s' = sim_cycles s) runs
  in
  let t0 = now () in
  let rec timed r acc =
    let acc = List.rev_append (run_round s r) acc in
    if now () -. t0 >= seconds then acc else timed (r + 1) acc
  in
  let jobs = timed 1 [] in
  let kinds = kind_times s jobs in
  let ms = List.map fst kinds in
  let failed = List.length (List.filter (fun j -> not j.ok) jobs) in
  let failed_setup = List.fold_left (fun acc (_, s) -> acc + s.setup_failed) 0 runs in
  {
    attempted = List.length jobs;
    failed;
    correct = failed = 0 && failed_setup = 0 && consistent;
    metrics =
      [
        metric "guest_mips" "Minsn/s" (ratio (sum snd kinds) (sum fst kinds *. 1000.));
        metric "job_ms_p50" "ms" (Stats.median ms);
        metric "job_ms_p99" "ms" (Stats.percentile 0.99 ms);
        metric "sim_cycles" "cycles" (sim_cycles s);
        metric "sim_slowdown_geomean" "ratio" (slowdown s);
        metric "setup_s" "s" (Stats.median (List.map fst runs));
        metric "rss_peak_mb" "MB" (rss_peak_mb ());
      ];
  }

(* At least three set-ups and at least a second of them: spectre-attack's
   takes ~0.2 s, and the median of three that short swung by 30% between
   sets of runs. *)
let end_to_end w ~seed ~seconds =
  let rec setups acc total =
    if List.length acc >= 3 && total >= 1. then List.rev acc
    else
      let t0 = now () in
      let s = setup w ~seed in
      let d = now () -. t0 in
      setups ((d, s) :: acc) (total +. d)
  in
  measure (setups [] 0.) ~seconds

(* ---- traced run -------------------------------------------------------- *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_job : int;
  sp_parent : int option;
  sp_start : float;  (** absolute, seconds *)
  sp_dur_us : float;
}

(* Exact per-job counts, read from the processor the bench owns and from
   GC deltas around the job call. *)
type tjob = {
  t_job : int;
  t_ok : bool;
  t_res : P.result;
  t_accesses : int;
  t_misses : int;
  t_flushes : int;
  t_syncs : int;
  t_ref_insns : int64;  (** oracle reference instructions; 0 elsewhere *)
  t_interp_insns : int64;  (** standalone interpreter run *)
  t_minor : float;
  t_promoted : float;
  t_majors : float;
}

type tracer = {
  origin : float;
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable dfg_nodes : float list;
  mutable trace_bundles : float list;
}

let tracer () =
  { origin = now (); spans = []; next = 0; stack = []; dfg_nodes = [];
    trace_bundles = [] }

let span tr ~job name f =
  let id = tr.next in
  tr.next <- id + 1;
  let parent = match tr.stack with p :: _ -> Some p | [] -> None in
  tr.stack <- id :: tr.stack;
  let t0 = now () in
  let finish () =
    let dur = (now () -. t0) *. 1e6 in
    tr.stack <- List.tl tr.stack;
    tr.spans <-
      { sp_id = id; sp_name = name; sp_job = job; sp_parent = parent;
        sp_start = t0; sp_dur_us = dur }
      :: tr.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Replay every installed region's translation through the public phase
   functions, one span per phase. Regions evicted before the run ended
   are not replayed, and the trace is rebuilt from the final branch
   profile. *)
let replay tr ~job proc =
  let eng = P.engine proc in
  let cfg = E.config eng in
  let mem = P.mem proc in
  let opt =
    match cfg.E.opt_override with Some o -> o | None -> M.opt_of_mode cfg.E.mode
  in
  let verify_on = cfg.E.verify <> E.Verify_off in
  let span name f = span tr ~job name f in
  let verify trace plan =
    span "verify.check" (fun () ->
        ignore (Gb_verify.Verifier.verify trace);
        Option.iter
          (fun plan -> ignore (Gb_verify.Verifier.check_cut trace ~plan))
          plan)
  in
  let translate entry =
    let gtrace =
      span "dbt.trace_build" (fun () ->
          Gb_dbt.Trace_builder.build cfg.E.trace_cfg ~mem
            ~profile:(E.branch_profile eng) ~entry)
    in
    let g = span "ir.build" (fun () -> Gb_ir.Build.build ~opt ~lat:cfg.E.lat gtrace) in
    let report = span "core.mitigate" (fun () -> M.apply cfg.E.mode ~lat:cfg.E.lat g) in
    let cycles =
      span "dbt.sched" (fun () ->
          Gb_dbt.Sched.schedule cfg.E.resources ~lat:cfg.E.lat g)
    in
    let trace =
      span "dbt.codegen" (fun () ->
          Gb_dbt.Codegen.emit cfg.E.resources ~n_hidden:cfg.E.n_hidden ~cycles
            ~entry_pc:entry ~guest_insns:(Gb_ir.Gtrace.length gtrace)
            ~meta:Gb_vliw.Vinsn.empty_meta g)
    in
    (* the engine verifies inside translation only when the config asks *)
    if verify_on then verify trace report.M.cut_plan;
    (g, trace, report)
  in
  List.iter
    (fun (r : E.region) ->
      match r.E.r_tier with
      | `Block -> (
        try
          ignore
            (span "dbt.first_pass" (fun () ->
                 Gb_dbt.First_pass.translate ~mem ~entry:r.E.r_entry))
        with Gb_dbt.First_pass.Untranslatable _ -> ())
      | `Trace -> (
        match span "dbt.translate" (fun () -> translate r.E.r_entry) with
        | g, trace, report ->
          if not verify_on then verify trace report.M.cut_plan;
          tr.dfg_nodes <- float_of_int (Gb_ir.Dfg.n_nodes g) :: tr.dfg_nodes;
          tr.trace_bundles <-
            float_of_int (Array.length trace.Gb_vliw.Vinsn.bundles)
            :: tr.trace_bundles
        | exception
            ( Gb_dbt.Trace_builder.Build_failure _ | Gb_ir.Build.Unsupported _
            | Gb_dbt.Sched.Cyclic | Gb_dbt.Codegen.Out_of_registers ) ->
          ()))
    (E.regions eng)

let traced_job tr s k ~secret ~job =
  let root = tr.next in
  (* as in [run_job]: the GC deltas are the job's own *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let answer =
    try Ok (span tr ~job "job" (fun () -> call s.workload k ~secret))
    with e -> Error e
  in
  let g1 = Gc.quick_stat () in
  match answer with
  | Error _ -> None
  | Ok answer ->
  (* the job call is the parent of everything run on its behalf after it:
     the owned processor run, the replay and the standalone interpreter *)
  tr.stack <- [ root ];
  let ok = passes s k answer in
  let asm = assemble k ~secret in
  let own audit =
    span tr ~job "processor.run" (fun () ->
        let p = P.create ~config:k.config ~audit asm in
        (p, P.run p))
  in
  let proc, res, syncs, ref_insns =
    match answer with
    | Ran (p, r) -> (p, r, 0, 0L)
    | Diffed rep ->
      let p, r = own false in
      (p, r, rep.Gb_diff.Oracle.syncs, rep.Gb_diff.Oracle.ref_insns)
    | Attacked _ ->
      let p, r = own true in
      (p, r, 0, 0L)
  in
  replay tr ~job proc;
  let interp =
    Gb_riscv.Interp.create ~mem:(fresh_mem asm) ~pc:asm.Gb_riscv.Asm.entry ()
  in
  span tr ~job "riscv.interp" (fun () -> ignore (Gb_riscv.Interp.run interp));
  tr.stack <- [];
  let cs = Gb_cache.Cache.stats (Gb_cache.Hierarchy.cache (P.hierarchy proc)) in
  Some {
    t_job = job;
    t_ok = ok;
    t_res = res;
    t_accesses = cs.Gb_cache.Cache.reads + cs.Gb_cache.Cache.writes;
    t_misses = cs.Gb_cache.Cache.read_misses + cs.Gb_cache.Cache.write_misses;
    t_flushes = cs.Gb_cache.Cache.flushes;
    t_syncs = syncs;
    t_ref_insns = ref_insns;
    t_interp_insns = interp.Gb_riscv.Interp.insn_count;
    t_minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    t_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    t_majors = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
  }

(* The in-program Timer phases and the replay span measuring the same
   work. *)
let timer_phases =
  [ ("first_pass", "dbt.first_pass"); ("trace_build", "dbt.trace_build");
    ("ir_build", "ir.build"); ("poison_analysis", "core.mitigate");
    ("schedule", "dbt.sched"); ("codegen", "dbt.codegen");
    ("verify", "verify.check") ]

(* One job with an active sink, for the Timer's own per-phase means. *)
let timer_means s =
  let k = s.kinds.(0) in
  let obs = Gb_obs.Sink.create () in
  ignore (call ~obs s.workload k ~secret:(snd (plan s 1)));
  let totals = Gb_obs.Sink.timer_totals obs in
  List.map
    (fun (phase, _) ->
      ( phase,
        match
          List.find_opt (fun t -> t.Gb_obs.Timer.t_phase = phase) totals
        with
        | Some t -> ratio t.Gb_obs.Timer.t_total_us (float_of_int t.Gb_obs.Timer.t_calls)
        | None -> 0. ))
    timer_phases

(* a span's name starts with its layer: "dbt.sched", "ir.build", ... *)
let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let trace_json tr =
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.rev_map
             (fun sp ->
               Json.Obj
                 [
                   ("name", Json.String sp.sp_name);
                   ("cat", Json.String (layer_of sp.sp_name));
                   ("ph", Json.String "X");
                   ("ts", Json.Float ((sp.sp_start -. tr.origin) *. 1e6));
                   ("dur", Json.Float sp.sp_dur_us);
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       (("span", Json.Int sp.sp_id)
                       :: ("job", Json.Int sp.sp_job)
                       ::
                       (match sp.sp_parent with
                       | Some p -> [ ("parent", Json.Int p) ]
                       | None -> [])) );
                 ])
             tr.spans) );
      ("displayTimeUnit", Json.String "ms");
    ]

let per_layer tr tjobs ~untraced_p50 ~timers =
  let durs name =
    List.filter_map
      (fun sp -> if sp.sp_name = name then Some sp.sp_dur_us else None)
      tr.spans
  in
  let job_durs name =
    (* per-job sum of a span name *)
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun sp ->
        if sp.sp_name = name then
          Hashtbl.replace tbl sp.sp_job
            (sp.sp_dur_us
            +. Option.value ~default:0. (Hashtbl.find_opt tbl sp.sp_job)))
      tr.spans;
    fun job -> Option.value ~default:0. (Hashtbl.find_opt tbl job)
  in
  let p q name = Stats.percentile q (durs name) in
  let mean name = Stats.mean (durs name) in
  let n = float_of_int (List.length tjobs) in
  let per_job f = ratio (sum f tjobs) n in
  let i64 = Int64.to_float in
  let call_us = job_durs "job" and proc_us = job_durs "processor.run" in
  let interp_us = job_durs "riscv.interp" in
  let own_us t = if proc_us t.t_job > 0. then proc_us t.t_job else call_us t.t_job in
  let sum_call = sum (fun t -> call_us t.t_job) tjobs in
  let interp_ns =
    ratio
      (sum (fun t -> interp_us t.t_job) tjobs *. 1000.)
      (sum (fun t -> i64 t.t_interp_insns) tjobs)
  in
  (* translation time of a job: its translation counts at the replayed
     per-translation means of this workload *)
  let translate_us t =
    (float_of_int t.t_res.P.translations *. mean "dbt.translate")
    +. (float_of_int t.t_res.P.first_pass_translations *. mean "dbt.first_pass")
  in
  let oracle = List.filter (fun t -> t.t_syncs > 0) tjobs in
  let traced_p50 = Stats.median (List.map (fun t -> call_us t.t_job /. 1000.) tjobs) in
  [
    metric "riscv.interp.ns_per_insn" "ns/insn" interp_ns;
    metric "riscv.interp.share" "ratio"
      (ratio
         (sum
            (fun t -> i64 (Int64.add t.t_res.P.interp_insns t.t_ref_insns))
            tjobs
         *. interp_ns /. 1000.)
         sum_call);
    metric "vliw.exec.ns_per_bundle" "ns/bundle"
      (ratio
         (sum
            (fun t ->
              own_us t -. translate_us t
              -. (i64 t.t_res.P.interp_insns *. interp_ns /. 1000.))
            tjobs
         *. 1000.)
         (sum (fun t -> i64 t.t_res.P.bundles) tjobs));
    metric "vliw.bundles_per_job" "count" (per_job (fun t -> i64 t.t_res.P.bundles));
    metric "vliw.rollback_ratio" "ratio"
      (ratio (sum (fun t -> i64 t.t_res.P.rollbacks) tjobs)
         (sum (fun t -> i64 t.t_res.P.trace_runs) tjobs));
    metric "vliw.side_exit_ratio" "ratio"
      (ratio (sum (fun t -> i64 t.t_res.P.side_exits) tjobs)
         (sum (fun t -> i64 t.t_res.P.trace_runs) tjobs));
    metric "vliw.stall_share" "ratio"
      (ratio (sum (fun t -> i64 t.t_res.P.stall_cycles) tjobs)
         (sum (fun t -> i64 t.t_res.P.cycles) tjobs));
    metric "cache.miss_ratio" "ratio"
      (ratio (sum (fun t -> float_of_int t.t_misses) tjobs)
         (sum (fun t -> float_of_int t.t_accesses) tjobs));
    metric "cache.flushes_per_job" "count" (per_job (fun t -> float_of_int t.t_flushes));
    metric "cache.audit.transient_lines_per_job" "count"
      (per_job (fun t ->
           match t.t_res.P.audit with
           | Some a -> float_of_int a.Gb_cache.Audit.transient_lines
           | None -> 0.));
    metric "dbt.trace_build.us_p50" "us" (p 0.5 "dbt.trace_build");
    metric "dbt.trace_build.us_p99" "us" (p 0.99 "dbt.trace_build");
    metric "dbt.first_pass.us_p50" "us" (p 0.5 "dbt.first_pass");
    metric "dbt.sched.us_p50" "us" (p 0.5 "dbt.sched");
    metric "dbt.sched.us_p99" "us" (p 0.99 "dbt.sched");
    metric "dbt.codegen.us_p50" "us" (p 0.5 "dbt.codegen");
    metric "dbt.codegen.us_p99" "us" (p 0.99 "dbt.codegen");
    metric "dbt.translate.us_p50" "us" (p 0.5 "dbt.translate");
    metric "dbt.translate.us_p99" "us" (p 0.99 "dbt.translate");
    metric "dbt.translate.share" "ratio" (ratio (sum translate_us tjobs) sum_call);
    metric "dbt.translations_per_job" "count"
      (per_job (fun t -> float_of_int t.t_res.P.translations));
    metric "dbt.first_pass_per_job" "count"
      (per_job (fun t -> float_of_int t.t_res.P.first_pass_translations));
    metric "dbt.cc.evictions_per_translation" "ratio"
      (ratio (sum (fun t -> float_of_int t.t_res.P.cc_evictions) tjobs)
         (sum
            (fun t ->
              float_of_int (t.t_res.P.translations + t.t_res.P.first_pass_translations))
            tjobs));
    metric "dbt.chain.bypass_ratio" "ratio"
      (ratio (sum (fun t -> i64 t.t_res.P.chain_follows) tjobs)
         (sum (fun t -> i64 (Int64.add t.t_res.P.chain_follows t.t_res.P.dispatch_exits)) tjobs));
    metric "dbt.bundles_per_trace" "count" (Stats.mean tr.trace_bundles);
    metric "ir.build.us_p50" "us" (p 0.5 "ir.build");
    metric "ir.build.us_p99" "us" (p 0.99 "ir.build");
    metric "ir.dfg_nodes_per_trace" "count" (Stats.mean tr.dfg_nodes);
    metric "core.mitigate.us_p50" "us" (p 0.5 "core.mitigate");
    metric "core.mitigate.us_p99" "us" (p 0.99 "core.mitigate");
    metric "core.patterns_per_job" "count"
      (per_job (fun t -> float_of_int t.t_res.P.patterns_found));
    metric "core.loads_constrained_per_job" "count"
      (per_job (fun t -> float_of_int t.t_res.P.loads_constrained));
    metric "core.fences_per_job" "count"
      (per_job (fun t -> float_of_int t.t_res.P.fences_inserted));
    metric "verify.check.us_p50" "us" (p 0.5 "verify.check");
    metric "verify.check.us_p99" "us" (p 0.99 "verify.check");
    metric "diff.syncs_per_job" "count" (per_job (fun t -> float_of_int t.t_syncs));
    metric "diff.self_share" "ratio"
      (ratio
         (sum (fun t -> call_us t.t_job -. proc_us t.t_job -. interp_us t.t_job) oracle)
         (sum (fun t -> call_us t.t_job) oracle));
    metric "gc.minor_words_per_guest_insn" "words/insn"
      (ratio (sum (fun t -> t.t_minor) tjobs)
         (sum (fun t -> i64 t.t_res.P.guest_insns) tjobs));
    metric "gc.major_collections_per_job" "count" (per_job (fun t -> t.t_majors));
    metric "gc.promoted_words_per_job" "words" (per_job (fun t -> t.t_promoted));
    metric "trace.overhead" "ratio" (ratio traced_p50 untraced_p50);
  ]
  @ List.map
      (fun (phase, us) -> metric ("timer." ^ phase ^ ".us_mean") "us" us)
      timers

let traced ?kinds ?(rounds = 2) w ~seed =
  let s = setup ?kinds w ~seed in
  let untraced = List.concat (List.init rounds (fun i -> run_round s (i + 1))) in
  (* the same rounds again, traced: same job order, same secrets *)
  let tr = tracer () in
  let traced =
    List.concat_map
      (fun r ->
        let order, secret = plan s r in
        Array.to_list
          (Array.mapi
             (fun i k -> traced_job tr s k ~secret ~job:((r * 1000) + i))
             order))
      (List.init rounds (fun i -> i + 1))
  in
  let tjobs = List.filter_map Fun.id traced in
  let failed =
    List.length (List.filter (fun j -> not j.ok) untraced)
    + List.length
        (List.filter
           (function Some t -> not t.t_ok | None -> true)
           traced)
  in
  let metrics =
    per_layer tr tjobs
      ~untraced_p50:(Stats.median (List.map (fun j -> j.ms) untraced))
      ~timers:(timer_means s)
  in
  ( { attempted = List.length untraced + List.length traced; failed;
      correct = failed = 0 && s.setup_failed = 0; metrics },
    trace_json tr )
