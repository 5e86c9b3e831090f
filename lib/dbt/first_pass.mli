(** First-level translation (the middle tier of a Hybrid-DBT-style
    system): a guest basic block translated 1:1 into naive VLIW bundles —
    one operation per cycle, guest registers written directly, no
    reordering, no hidden registers and {e no speculation whatsoever}.

    Warm code runs here (cheaper than interpretation: no per-instruction
    decode/dispatch and no serial fetch overhead) until it is hot enough
    for the optimizing trace pipeline. Because nothing is reordered, this
    tier is Spectre-free by construction — asserted by the attack tests.

    A block ends at its first control-flow instruction: conditional
    branches become a side exit plus a fall-through exit; a direct jump
    becomes an unconditional exit; [jalr] and [ecall] end the block
    {e before} them (the interpreter executes them). *)

type result = {
  trace : Gb_vliw.Vinsn.trace;
  branch_pc : int option;
      (** pc of the terminal conditional branch, when the block ends in
          one — used to keep profiling alive while running on this tier
          (side exit = taken, fall-through past it = not taken) *)
}

exception Untranslatable of string
(** The block is empty (entry sits on ecall/jalr/illegal bytes). *)

val translate : mem:Gb_riscv.Mem.t -> entry:int -> result
(** The block at [entry]: a function of the text words alone, which
    {!Gb_riscv.Mem} never lets change, so a translation from the same
    entry always returns the same block. *)
