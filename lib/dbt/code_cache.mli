(** The bounded code cache: the single owner of all translated code.

    Real DBT processors (Transmeta Crusoe, NVidia Denver) run translated
    code out of a fixed-size region of host memory and evict
    translations under pressure. This module models that: both tiers of
    translation (first-pass {!Block}s and optimized {!Trace}s) live in
    one array with a slot per text word under a capacity budget counted
    in VLIW bundles, evicted LRU. Every trace exit returns to the
    processor's dispatcher, which looks the next pc up here; nothing
    links one translation to another, so dropping an entry needs no
    patching of other code.

    A cache has one owner — the engine that installs into it, on the
    domain that runs the guest — and takes no lock. *)

type tier =
  | Block  (** first-pass, one-op-per-bundle, non-speculative *)
  | Trace  (** optimized trace from the full mitigation pipeline *)

type entry = {
  e_pc : int;  (** guest entry pc *)
  e_trace : Gb_vliw.Vinsn.trace;
  e_tier : tier;
  mutable e_stamp : int;  (** LRU stamp, maintained by {!find}/{!insert} *)
}

type config = {
  capacity : int;
      (** capacity budget in VLIW bundles across both tiers. The budget
          may be exceeded transiently by a single entry larger than the
          whole budget (it still installs, alone). *)
  chain : bool;
      (** Vestigial and always [true]: there is no trace chaining.
          {!create} raises [Invalid_argument] for [false]. The field
          stays only until the host benchmark's configs stop setting
          it. *)
}

val default_config : config
(** Capacity 65536 bundles (large enough that the tier-1 suite never
    evicts). *)

type stats = {
  mutable evictions : int;  (** capacity evictions only, not replacements *)
}

type t

val create : ?obs:Gb_obs.Sink.t -> text_lo:int -> text_hi:int -> config -> t
(** A cache for the code of the text segment [\[text_lo, text_hi)]:
    only an aligned pc in it can hold an entry. [obs] (default
    {!Gb_obs.Sink.noop}) reads the [code_cache.evictions] counter from
    {!stats}, and receives the [code_cache.bundles]/[code_cache.entries]
    gauges and eviction events. Raises [Invalid_argument] when
    [config.chain] is [false] or [text_lo] is misaligned or above
    [text_hi]. *)

val config : t -> config

val stats : t -> stats

val set_on_evict : t -> (pc:int -> tier -> unit) -> unit
(** Hook fired for every {e capacity} eviction (not for explicit
    {!invalidate} or same-pc replacement). The engine uses it to reset
    the region's adaptive run/rollback/side-exit counters so a
    re-promoted region does not inherit stale adaptive state. *)

val set_on_insert : t -> (entry -> unit) -> unit
(** Observer fired for every {!insert}, once the entry is installed: each
    translation that reaches the cache, of either tier. Nothing in the
    simulator sets it; the verifier's differential test collects every
    installed trace through it. *)

val slot : t -> int -> int
(** The slot of a guest pc: [(pc - text_lo) / 4] for an aligned pc in
    text, -1 for any other. The engine keeps its per-pc state in the
    same slots. *)

val none : entry
(** The entry {!find} and {!peek} return at a pc with no translation,
    shared by every cache (compare with [==]): a miss allocates
    nothing. Never installed and never touched; its tier is {!Block}. *)

val find : t -> int -> entry
(** {!peek} that refreshes the LRU stamp of the entry it finds: the
    dispatcher's lookup. *)

val peek : t -> int -> entry
(** Installed entry at a guest pc, or {!none}; leaves recency alone. *)

val insert : t -> pc:int -> tier:tier -> Gb_vliw.Vinsn.trace -> entry
(** Install a translation, evicting LRU entries until it fits. An
    existing entry at the same pc (tier promotion, retranslation) is
    replaced, but neither counted as an eviction nor reported to the
    [on_evict] hook. Raises [Invalid_argument] for a pc outside text or
    misaligned. *)

val invalidate : t -> int -> unit
(** Drop the entry at a pc. No-op when absent; never fires the
    [on_evict] hook — this is the API adaptive retranslate/despec route
    through deliberately, because they manage their own counter
    resets. *)

val used_bundles : t -> int

val entries : t -> entry list
(** All installed entries, in pc order. *)
