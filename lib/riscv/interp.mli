(** Reference interpreter for the guest ISA.

    This is the golden architectural model used for differential testing of
    the DBT pipeline, and also the timing model for not-yet-translated code
    in the co-designed processor (1 cycle per instruction plus memory
    latency reported by the hooks).

    The register file is passed in from outside so that interpreter and
    VLIW core can share architectural state (the VLIW file simply has extra
    hidden registers beyond index 31). Slot 0 of it (x0) is never
    written: a write to x0 goes to a discard slot, so x0 reads as zero. *)

type hooks = {
  mem_extra : addr:int -> size:int -> write:bool -> int;
      (** extra cycles charged for a memory access (cache model) *)
  flush_line : int -> unit;  (** data-cache line flush *)
}

val pure_hooks : hooks
(** No cache: zero extra cycles, flush is a no-op. *)

type centry
(** Decode-cache entry: the decoded instruction plus its pre-boxed
    64-bit immediate. Opaque — use {!flush_decode_cache} to invalidate. *)

type t = {
  regs : Regfile.t;
  mem : Mem.t;
  clock : int ref;
      (** the simulated clock, in cycles: {!step} and {!run} advance it
          by [1 + extra memory cycles] once an instruction is done, so a
          hook or an [rdcycle] reads the instruction's start *)
  hooks : hooks;
  has_hooks : bool;  (** false iff [hooks] is {!pure_hooks} *)
  mutable pc : int;
  mutable insn_count : int64;
  output : Buffer.t;  (** bytes written by the write ecall *)
  text_lo : int;  (** start of the memory's text segment at {!create} *)
  decode_cache : centry array;
      (** per-word decode cache over the text segment the memory held at
          {!create}: slot [i] holds the word at [text_lo + 4 * i], decoded
          on its first fetch. Sound because {!Mem} refuses stores into
          text. *)
  mutable rdcycle_hook : (int -> int) option;
      (** when set, every [rdcycle] result is filtered through the hook
          (given the natural clock reading). The differential oracle
          records timing on the DBT side and replays it on the reference
          side, making timing a run input instead of compared state.
          [None] (default) reads the clock unfiltered. *)
  mutable x_next : int;
      (** scratch: next pc reported by the execution core *)
  mutable x_taken : int;
      (** scratch: -1 = not a branch, 0 = not taken, 1 = taken *)
  mutable x_exit : int;  (** scratch: -1 = no exit, else exit code *)
  mutable acc_insns : int;
      (** instructions retired by {!run} not yet folded into
          [insn_count]; always 0 outside {!run} *)
  scratch : Regfile.t;
      (** scratch: slot 0 takes writes to x0, slot 1 stages an
          immediate operand *)
}

exception Trap of string
(** Unrecoverable guest error (illegal instruction, bad ecall, ...). *)

val default_sp : Mem.t -> int64
(** The initial stack pointer convention: 16 bytes below the top of
    memory. The single source of truth — the self-allocated path of
    {!create} uses it, and callers supplying their own register file
    (the processor) must use it too, so the two paths cannot drift. *)

val create :
  ?hooks:hooks -> ?clock:int ref -> ?regs:Regfile.t -> mem:Mem.t ->
  pc:int -> unit -> t
(** [regs] must have at least 32 entries and is never mutated here (it
    may be a shared file handed back mid-computation); a fresh 32-entry
    file is allocated by default, with [sp] initialised to
    {!default_sp}. The interpreter fetches from the text segment [mem]
    holds now, so load the program first. *)

type step_info = {
  s_pc : int;  (** pc of the executed instruction *)
  s_insn : Insn.t;
  s_next : int;  (** pc after the instruction *)
  s_taken : bool option;  (** for conditional branches *)
  s_exit : int option;  (** exit code when the program terminated *)
}

val alu :
  Insn.oprr -> Regfile.t -> int -> Regfile.t -> int -> Regfile.t -> int ->
  unit
(** [alu op d rd a ra b rb] writes [op] applied to slot [ra] of [a] and
    slot [rb] of [b] into slot [rd] of [d]. The semantics of the
    register-register ALU operations, shared by both execution tiers (the
    VLIW execution units must agree with the reference model). Operands
    and result stay in register files, so nothing is boxed. *)

val alu_rr : Insn.oprr -> int64 -> int64 -> int64
(** {!alu} on values, for cold callers (constant folding, tests). *)

val mulhu : int64 -> int64 -> int64
(** High 64 bits of the unsigned 128-bit product. *)

val cond : Insn.branch_cond -> Regfile.t -> int -> Regfile.t -> int -> bool
(** [cond c a ra b rb]: whether the branch condition holds between slot
    [ra] of [a] and slot [rb] of [b]. *)

val load_into :
  Mem.t -> addr:int -> Insn.width -> unsigned:bool -> Regfile.t -> int ->
  unit
(** [load_into mem ~addr w ~unsigned d rd] loads [w] bytes at [addr],
    sign- or zero-extends them, and writes the result into slot [rd] of
    [d]. Raises {!Mem.Fault} out of range. *)

val store_from : Mem.t -> addr:int -> Insn.width -> Regfile.t -> int -> unit
(** [store_from mem ~addr w s r] stores the low [w] bytes of slot [r] of
    [s] at [addr]. Raises {!Mem.Fault} out of range. *)

val width_bytes : Insn.width -> int

val flush_decode_cache : t -> unit
(** Invalidate every decode-cache entry (fault injection uses this to
    force a full re-decode): the next fetch of each word decodes it
    again. *)

val step : t -> step_info
(** Execute one instruction, advancing pc and the clock. Raises {!Trap} /
    {!Mem.Fault} on errors. A misaligned pc or one outside text
    (including one computed speculatively by guest code) raises a clean
    {!Trap} ("instruction fetch fault"), an illegal encoding raises a
    clean {!Trap} ("illegal instruction"), and a store into text raises
    {!Mem.Fault} at the store's address — never [Invalid_argument],
    {!Decode.Illegal} or an array-bounds exception. *)

val run : ?max_insns:int64 -> t -> int
(** Run until the exit ecall; returns the exit code. Raises {!Trap} when
    [max_insns] (default 1e9) is exceeded. Equivalent to iterating
    {!step} but allocation-free per instruction: [clock] advances as
    {!step} advances it, and the boxed [insn_count] is folded once, when
    [run] returns or raises. *)
