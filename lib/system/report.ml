type region_row = {
  entry : int;
  tier : string;
  runs : int;
  guest_insns : int;
  bundles : int;
  ipc : float;
  spec_loads : int;
  patterns : int;
}

type t = {
  result : Processor.result;
  translated_share : float;
  overall_ipc : float;
  cache_reads : int;
  cache_read_miss_rate : float;
  cache_writes : int;
  cache_write_miss_rate : float;
  regions : region_row list;
  metrics : Gb_util.Json.t;
}

let region_row (r : Gb_dbt.Engine.region) =
  let trace = r.Gb_dbt.Engine.r_trace in
  let bundles = Array.length trace.Gb_vliw.Vinsn.bundles in
  {
    entry = r.Gb_dbt.Engine.r_entry;
    tier = (match r.Gb_dbt.Engine.r_tier with `Trace -> "trace" | `Block -> "block");
    runs = r.Gb_dbt.Engine.r_runs;
    guest_insns = trace.Gb_vliw.Vinsn.guest_insns;
    bundles;
    ipc =
      (if bundles = 0 then 0.
       else float_of_int trace.Gb_vliw.Vinsn.guest_insns /. float_of_int bundles);
    spec_loads = trace.Gb_vliw.Vinsn.meta.Gb_vliw.Vinsn.spec_loads;
    patterns = trace.Gb_vliw.Vinsn.meta.Gb_vliw.Vinsn.spectre_patterns;
  }

let of_processor proc (result : Processor.result) =
  let regions = List.map region_row (Gb_dbt.Engine.regions (Processor.engine proc)) in
  (* the translated tiers ran what the interpreter did not: the machine
     counts every pass over every region, evicted and re-translated ones
     included (a full pass even on an early exit, so an estimate) *)
  let total = result.Processor.guest_insns in
  let translated_insns = Int64.sub total result.Processor.interp_insns in
  let stats = Gb_cache.Cache.stats (Gb_cache.Hierarchy.cache (Processor.hierarchy proc)) in
  let rate miss total = if total = 0 then 0. else float_of_int miss /. float_of_int total in
  {
    result;
    translated_share =
      (if Int64.equal total 0L then 0.
       else Int64.to_float translated_insns /. Int64.to_float total);
    overall_ipc =
      (if Int64.equal result.Processor.cycles 0L then 0.
       else Int64.to_float total /. Int64.to_float result.Processor.cycles);
    cache_reads = stats.Gb_cache.Cache.reads;
    cache_read_miss_rate = rate stats.Gb_cache.Cache.read_misses stats.Gb_cache.Cache.reads;
    cache_writes = stats.Gb_cache.Cache.writes;
    cache_write_miss_rate = rate stats.Gb_cache.Cache.write_misses stats.Gb_cache.Cache.writes;
    regions;
    metrics = Gb_obs.Sink.metrics_json (Processor.obs proc);
  }

let pp ?(max_regions = 10) ppf t =
  let r = t.result in
  Format.fprintf ppf "cycles             %Ld@." r.Processor.cycles;
  Format.fprintf ppf "guest insns        ~%Ld (%.1f%% on translated code)@."
    r.Processor.guest_insns (100. *. t.translated_share);
  Format.fprintf ppf "overall IPC        %.2f@." t.overall_ipc;
  Format.fprintf ppf "interp insns       %Ld@." r.Processor.interp_insns;
  Format.fprintf ppf "translations       %d traces, %d first-pass blocks@."
    r.Processor.translations r.Processor.first_pass_translations;
  Format.fprintf ppf "trace runs         %Ld (%Ld side exits, %Ld rollbacks)@."
    r.Processor.trace_runs r.Processor.side_exits r.Processor.rollbacks;
  Format.fprintf ppf "L1D                %d reads (%.1f%% miss), %d writes (%.1f%% miss)@."
    t.cache_reads
    (100. *. t.cache_read_miss_rate)
    t.cache_writes
    (100. *. t.cache_write_miss_rate);
  Format.fprintf ppf "countermeasure     %d patterns, %d constrained, %d fences@."
    r.Processor.patterns_found r.Processor.loads_constrained
    r.Processor.fences_inserted;
  Format.fprintf ppf "@.hottest regions:@.";
  let shown = List.filteri (fun i _ -> i < max_regions) t.regions in
  List.iter
    (fun row ->
      Format.fprintf ppf
        "  0x%-6x %-5s runs=%-7d insns=%-3d bundles=%-3d ipc=%.2f%s%s@."
        row.entry row.tier row.runs row.guest_insns row.bundles row.ipc
        (if row.spec_loads > 0 then
           Printf.sprintf " spec=%d" row.spec_loads
         else "")
        (if row.patterns > 0 then
           Printf.sprintf " patterns=%d" row.patterns
         else ""))
    shown;
  if List.length t.regions > max_regions then
    Format.fprintf ppf "  ... and %d more@."
      (List.length t.regions - max_regions)

let to_json t =
  let module J = Gb_util.Json in
  let r = t.result in
  J.Obj
    [
      ("cycles", J.Int (Int64.to_int r.Processor.cycles));
      ("guest_insns", J.Int (Int64.to_int r.Processor.guest_insns));
      ("translated_share", J.Float t.translated_share);
      ("overall_ipc", J.Float t.overall_ipc);
      ("interp_insns", J.Int (Int64.to_int r.Processor.interp_insns));
      ("translations", J.Int r.Processor.translations);
      ("first_pass_translations", J.Int r.Processor.first_pass_translations);
      ("trace_runs", J.Int (Int64.to_int r.Processor.trace_runs));
      ("side_exits", J.Int (Int64.to_int r.Processor.side_exits));
      ("rollbacks", J.Int (Int64.to_int r.Processor.rollbacks));
      ("patterns_found", J.Int r.Processor.patterns_found);
      ("loads_constrained", J.Int r.Processor.loads_constrained);
      ("cache_read_miss_rate", J.Float t.cache_read_miss_rate);
      ("cache_write_miss_rate", J.Float t.cache_write_miss_rate);
      ( "regions",
        J.List
          (List.map
             (fun row ->
               J.Obj
                 [
                   ("entry", J.Int row.entry);
                   ("tier", J.String row.tier);
                   ("runs", J.Int row.runs);
                   ("guest_insns", J.Int row.guest_insns);
                   ("bundles", J.Int row.bundles);
                   ("ipc", J.Float row.ipc);
                   ("spec_loads", J.Int row.spec_loads);
                   ("patterns", J.Int row.patterns);
                 ])
             t.regions) );
      ("metrics", t.metrics);
    ]
