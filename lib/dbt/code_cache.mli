(** The bounded code cache: the single owner of all translated code.

    Real DBT processors (Transmeta Crusoe, NVidia Denver) run translated
    code out of a fixed-size region of host memory, evict translations
    under pressure and link hot traces directly to each other so
    steady-state execution never returns to the dispatcher. This module
    models that: both tiers of translation (first-pass {!Block}s and
    optimized {!Trace}s) live in one table under a capacity budget
    counted in VLIW bundles, evicted LRU.

    It is also the only component allowed to patch {!Gb_vliw.Vinsn.stub}
    chain links (trace chaining), because it alone knows which
    translations are currently installed and under which mitigation mode
    they were produced. The invariant it maintains — checkable with
    {!well_linked} — is:

    {e every chain link in every installed trace points at the currently
    installed, mitigation-compatible translation of the stub's own
    [target_pc].}

    Eviction, invalidation and replacement all sever the affected links
    (in both directions) before the entry is dropped, so the pipeline can
    never chain into evicted or stale code.

    A cache has one owner — the engine that installs into it, on the
    domain that runs the guest — and takes no lock. *)

type tier =
  | Block  (** first-pass, one-op-per-bundle, non-speculative *)
  | Trace  (** optimized trace from the full mitigation pipeline *)

(** The speculation discipline a translation was produced under, used to
    decide whether a chained transfer may bypass the dispatcher. *)
type code_mode =
  | Nonspec
      (** contains no speculative loads (first-pass blocks, adaptively
          de-speculated traces) — mode-neutral, chains from/to anything *)
  | Mitigated of Gb_core.Mitigation.mode
      (** speculates under the given GhostBusters mode; two speculating
          translations chain only when their modes are equal *)

type entry = {
  e_pc : int;  (** guest entry pc *)
  e_trace : Gb_vliw.Vinsn.trace;
  e_tier : tier;
  e_mode : code_mode;
  mutable e_stamp : int;  (** LRU stamp, maintained by {!find}/{!insert} *)
}

type config = {
  capacity : int;
      (** capacity budget in VLIW bundles across both tiers. The budget
          may be exceeded transiently by a single entry larger than the
          whole budget (it still installs, alone). *)
  chain : bool;  (** allow {!link} to patch stubs at all *)
}

val default_config : config
(** Capacity 65536 bundles (large enough that the tier-1 suite never
    evicts); chaining on unless the [GHOSTBUSTERS_NO_CHAIN] environment
    variable is set (used by CI to run the whole suite dispatcher-only). *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;  (** capacity evictions only, not replacements *)
  mutable chain_links : int;
  mutable chain_breaks : int;
}

type t

val create : ?obs:Gb_obs.Sink.t -> config -> t
(** [obs] (default {!Gb_obs.Sink.noop}) receives the [code_cache.*]
    counters ([hits], [misses], [evictions], [chain_links],
    [chain_breaks]), the [code_cache.bundles]/[code_cache.entries]
    gauges and {!Gb_obs.Event.Chain} / eviction events. *)

val config : t -> config

val stats : t -> stats

val set_on_evict : t -> (pc:int -> tier -> unit) -> unit
(** Hook fired for every {e capacity} eviction (not for explicit
    {!invalidate} or same-pc replacement). The engine uses it to reset
    the region's adaptive run/rollback/side-exit counters so a
    re-promoted region does not inherit stale adaptive state. *)

val find : t -> int -> entry option
(** Installed entry at a guest pc; counts a hit or miss and refreshes the
    LRU stamp. *)

val peek : t -> int -> entry option
(** Like {!find} but touches neither statistics nor recency. *)

val has_trace : t -> int -> bool
(** Whether the entry at a guest pc is a {!Trace}: {!peek} without the
    allocation, for the engine's per-block-entry promotion checks. *)

val insert : t -> pc:int -> tier:tier -> mode:code_mode -> Gb_vliw.Vinsn.trace -> entry
(** Install a translation, evicting LRU entries until it fits. An
    existing entry at the same pc (tier promotion, retranslation) is
    replaced: unlinked and freed, but neither counted as an eviction nor
    reported to the [on_evict] hook. *)

val invalidate : t -> int -> unit
(** Drop the entry at a pc, severing its chain links in both directions.
    No-op when absent; never fires the [on_evict] hook — this is the API
    adaptive retranslate/despec route through deliberately, because they
    manage their own counter resets. *)

val compatible : src:entry -> dst:entry -> bool
(** Whether [src] may transfer into [dst] without a dispatcher visit:
    non-speculative code is mode-neutral (it neither leaks speculative
    state of its own nor inherits any — the MCB is cleared and the
    audit's run window closed at every stub commit), so it chains from
    and to anything; two speculating translations must agree on their
    mitigation mode. *)

val link : t -> src:entry -> stub:int -> dst:entry -> bool
(** [link t ~src ~stub ~dst] patches stub [stub] of [src] to transfer
    directly into [dst], provided chaining is enabled, [dst]'s mode is
    compatible with [src]'s, and the stub's own [target_pc] equals
    [dst.e_pc] (a hard correctness requirement — it makes a stale caller
    unable to create a wrong-control-flow edge). Both tiers participate;
    the processor keeps block hot counters ticking by recording an entry
    on every chained transfer, so chained-into blocks still promote.
    Both endpoints are re-checked for liveness: if either was
    invalidated, evicted or replaced since the caller looked it up, the
    link is refused rather than planting a chain into dead code that no
    removal could ever break.
    Returns whether the link is in place afterwards; re-linking an
    already-linked stub is true and costless. *)

val used_bundles : t -> int

val entries : t -> entry list
(** All installed entries, unordered. *)

val well_linked : t -> bool
(** The chaining invariant above: every chain link of every installed
    entry targets the currently installed trace object at its pc. Test
    hook; O(installed code). *)
