(** Rendering of a {!Baseline.comparison}: a markdown/ASCII table for
    humans (improved / unchanged / regressed, with deltas) and a JSON
    document for the CI gate. *)

val summary_line : Baseline.comparison -> string
(** One line: pass/fail, baseline identity and the per-status counts. *)

val to_ascii : ?max_unchanged:int -> Baseline.comparison -> string
(** The comparison as a {!Gb_util.Table}: every regressed, improved,
    added and removed cell, at most [max_unchanged] (default 0) unchanged
    ones, then the summary line. *)

val to_markdown : ?max_unchanged:int -> Baseline.comparison -> string
(** Same content as {!to_ascii} in a GitHub-flavoured markdown table
    (what the CI job puts in its step summary). *)

val to_json : Baseline.comparison -> Gb_util.Json.t
(** The full cell list plus the status counts and the [passed] bit —
    machine-checkable by the CI perf gate. *)
