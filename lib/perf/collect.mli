(** Manifest collection: run the experiments and flatten their results
    into {!Manifest} metric/verdict cells — the [ghostbusters perf record]
    path, and the only writer of machine-readable experiment results (the
    bench harness prints the same experiments as tables). The simulator
    is deterministic, so a manifest recorded on an unchanged tree
    compares clean against the committed trajectory. *)

val collect : ?seed:int64 -> unit -> Manifest.t
(** Run E1, E2, E4, E8 (with the capacity-constrained E1 re-check), E9
    and E10 (~10 s) and build the manifest:

    - E1 — [cycles.e1.*] per variant and mode, [audit_fn.e1.*],
      [e1.<variant>.<mode>.leaked] and [e1.<variant>.min_cut_fewer_fences]
      verdicts;
    - E2 — [cycles.e2.*] and [slowdown.e2.*] per kernel and mode,
      geomean slowdowns, [audit_fn.e2.*], the [cause_share.e2.*]
      cycle-attribution profile and the
      [e2.min_cut_fence_stall_leq_fence_mode] verdict;
    - E4 — the same cells under the [e4] prefix;
    - E8 — [translations_per_1k.e8.<kernel>] (default code cache), the
      [e8.<kernel>.arch_equal] verdicts (a 192-bundle cache changes no
      architectural result) and [e8.verdicts_unchanged] (the E1
      verdicts survive a capacity-constrained code cache);
    - E9/E10 — the static-verification and differential-gate verdicts,
      plus fault accounting as informational [faults.e10.*] cells;
    - [counter.*] — informational cells: the [Gb_obs] counters of the
      canonical instrumented run (the first Polybench kernel under
      fine-grained mitigation with an active sink, the run the bench
      prints as its metrics snapshot);
    - [alloc.minor_words_per_kinsn.{interp,pipeline.*}] — minor-heap
      words per 1000 guest instructions of the execution tiers on the
      first Polybench kernel, translation excluded. *)
