(** Manifest collection: run the experiments and flatten their results
    into {!Manifest} metric/verdict cells — the [ghostbusters perf record]
    path. It is the only program that runs the experiments and the only
    writer of machine-readable experiment results: every number
    EXPERIMENTS.md's E1–E7 tables show is a cell, and {!Report.experiment_tables}
    renders them without running anything. The simulator is
    deterministic, so a manifest recorded on an unchanged tree compares
    clean against the committed trajectory. *)

val collect : ?seed:int64 -> unit -> Manifest.t
(** Run E1–E10 (E8 with the capacity-constrained E1 re-check; ~9 s) and
    build the manifest:

    - E1 — [cycles.e1.*] per variant and mode, [audit_fn.e1.*],
      [e1.<variant>.<mode>.leaked] and [e1.<variant>.min_cut_fewer_fences]
      verdicts, and the table's bytes recovered (of the secret's),
      rollbacks and patterns as [table.e1.<variant>.<mode>.*];
    - E2 — [cycles.e2.*] and [slowdown.e2.*] per kernel and mode,
      geomean slowdowns, [audit_fn.e2.*], the attributed cycles of the
      21 programs summed per mode and cause
      ([cause_cycles.e2.<mode>.<cause>]) and the
      [e2.min_cut_fence_stall_leq_fence_mode] verdict;
    - E3 — [table.e3.<kernel>.patterns], read from E2's runs;
    - E4 — the E2 cells under the [e4] prefix, and
      [table.e4.matmul-ptr.patterns];
    - E5 — [table.e5.{hit,miss}.{lines,min,max}]: the probe latencies of
      the re-touched and of the flushed lines;
    - E6 — per design point, [cycles.e6.<param>.<value>] (the kernel's
      unsafe run), [slowdown.e6.<param>.<value>.no-speculation] and
      [table.e6.<param>.<value>.{v1,v4}-leaks];
    - E7 — [table.e7.<mode>.{bits-recovered,bits-total}];
    - E8 — [translations_per_1k.e8.<kernel>] (default code cache), the
      [e8.<kernel>.arch_equal] verdicts (a 192-bundle cache changes no
      architectural result) and [e8.verdicts_unchanged] (the E1
      verdicts survive a capacity-constrained code cache);
    - E9/E10 — the static-verification and differential-gate verdicts,
      plus fault accounting as informational [faults.e10.*] cells;
    - [counter.*] — informational cells: the [Gb_obs] counters of the
      canonical instrumented run (the first Polybench kernel under
      fine-grained mitigation with an active sink);
    - [alloc.minor_words_per_kinsn.{interp,pipeline.*}] — minor-heap
      words per 1000 guest instructions of the execution tiers on the
      first Polybench kernel, translation excluded. *)
