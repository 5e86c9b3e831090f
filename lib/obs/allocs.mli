(** Minor-heap allocation accounting for the execution hot path.

    An accumulator over [Gc.minor_words] with pausable exclusion windows:
    {!start} begins counting allocation on the calling domain, {!pause} /
    {!resume} carve out regions whose allocation must not be charged to
    the measured path, and {!stop} returns the counted words. The DBT
    engine brackets its two translation entry points ([translate] and
    [translate_first_pass]) with pause/resume, so a window around a
    processor run measures {e execution} allocation —
    the interpreter and VLIW pipeline hot loops — with the translation
    pipeline (a separate, cold subsystem that allocates by design)
    excluded. This is what the [alloc.minor_words_per_kinsn.*] manifest
    cells report (see docs/OBSERVABILITY.md).

    An accumulator that was never {!start}ed costs one load and branch
    per pause/resume, so the engine brackets stay on unconditionally.
    {!start}, {!pause} and {!resume} allocate nothing, and {!stop} only
    boxes its result once counting has ended (the counters live in a
    flat float record), so the count does not depend on how many windows
    a run opens. [Gc.minor_words] counts the calling domain only, which
    is the domain that runs the guest. *)

type t

val create : unit -> t
(** A fresh accumulator, not counting. *)

val start : t -> unit
(** Reset and begin counting from the current [Gc.minor_words]. *)

val stop : t -> float
(** Stop counting and return the words counted since {!start},
    exclusion windows subtracted. 0 if never started. *)

val pause : t -> unit
(** Begin an exclusion window: allocation until the matching {!resume}
    is not counted. Nests; only the outermost pair reads the clock.
    No-op when not counting. *)

val resume : t -> unit
(** Close the innermost exclusion window. No-op when not counting. *)

val counting : t -> bool

val per_kinsn : words:float -> insns:int64 -> float
(** Words per 1000 instructions; 0 when [insns] is 0. *)
