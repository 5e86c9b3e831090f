type config = {
  max_insns : int;
  max_visits : int;
  bias_threshold : float;
  min_samples : int;
}

let default_config =
  { max_insns = 96; max_visits = 4; bias_threshold = 0.8; min_samples = 8 }

exception Build_failure of string

(* Direction codes, as recorded in a walk: the bias read at a
   conditional branch. *)
let dir_fall = 1

let dir_taken = 2

let dir_unbiased = 3

let branch_direction cfg profile pc =
  match profile pc with
  | None -> dir_unbiased
  | Some (taken, total) ->
    if total < cfg.min_samples then dir_unbiased
    else
      let ratio = float_of_int taken /. float_of_int total in
      if ratio >= cfg.bias_threshold then dir_taken
      else if ratio <= 1. -. cfg.bias_threshold then dir_fall
      else dir_unbiased

type walk = { w_pcs : int array; w_dirs : int array }

(* Visit counts by pc. [Int.hash] is a call to C's [caml_hash]; a pc is
   a multiple of 4, so dropping its two low bits spreads it over the
   buckets as well. *)
module Visits = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash pc = pc lsr 2
end)

(* The walk proper: the trace, and the pc and direction of every
   conditional branch it read a direction at, newest first. Its other
   inputs are the words it fetches, which {!Gb_riscv.Mem} keeps
   immutable as text (a fetch outside text faults, always the same). *)
let form cfg ~mem ~profile ~entry =
  let visits = Visits.create 64 in
  let steps = ref [] in
  let count = ref 0 in
  let push step =
    steps := step :: !steps;
    incr count
  in
  let branches = ref [] in
  let rec walk pc =
    if !count >= cfg.max_insns then pc
    else
      let v = Option.value ~default:0 (Visits.find_opt visits pc) in
      if v >= cfg.max_visits then pc
      else begin
        Visits.replace visits pc (v + 1);
        (* a faulting fetch stops the walk as an ecall does *)
        match
          Gb_riscv.Decode.decode (Gb_riscv.Mem.load_insn_word mem ~addr:pc)
        with
        | exception (Gb_riscv.Decode.Illegal _ | Gb_riscv.Mem.Fault _) -> pc
        | Gb_riscv.Insn.Ecall | Gb_riscv.Insn.Jalr _ -> pc
        | Gb_riscv.Insn.Jal (rd, off) as insn ->
          if rd <> 0 then push { Gb_ir.Gtrace.pc; insn; exit_cond = None };
          walk (pc + off)
        | Gb_riscv.Insn.Branch (cond, _, _, off) as insn ->
          let dir = branch_direction cfg profile pc in
          branches := (pc, dir) :: !branches;
          if dir = dir_fall then begin
            push { Gb_ir.Gtrace.pc; insn; exit_cond = Some (cond, pc + off) };
            walk (pc + 4)
          end
          else if dir = dir_taken then begin
            push
              {
                Gb_ir.Gtrace.pc;
                insn;
                exit_cond = Some (Gb_riscv.Insn.negate_cond cond, pc + 4);
              };
            walk (pc + off)
          end
          else pc
        | ( Gb_riscv.Insn.Op_imm _ | Gb_riscv.Insn.Op _ | Gb_riscv.Insn.Lui _
          | Gb_riscv.Insn.Auipc _ | Gb_riscv.Insn.Load _
          | Gb_riscv.Insn.Store _ | Gb_riscv.Insn.Fence
          | Gb_riscv.Insn.Rdcycle _ | Gb_riscv.Insn.Cflush _ ) as insn ->
          push { Gb_ir.Gtrace.pc; insn; exit_cond = None };
          walk (pc + 4)
      end
  in
  let fall_pc = walk entry in
  if !count = 0 then raise (Build_failure "empty trace")
  else ({ Gb_ir.Gtrace.entry; steps = List.rev !steps; fall_pc }, !branches)

let build cfg ~mem ~profile ~entry = fst (form cfg ~mem ~profile ~entry)

let build_walk cfg ~mem ~profile ~entry =
  let gtrace, branches = form cfg ~mem ~profile ~entry in
  let b = Array.of_list (List.rev branches) in
  (gtrace, { w_pcs = Array.map fst b; w_dirs = Array.map snd b })

(* A build from the walk's entry is a deterministic function of the
   config, of the immutable text and of the directions it reads, and the
   walk holds every direction in reading order: while each still reads
   the same, the rebuild reaches the same branches and takes the same
   steps. *)
let rec holds_from cfg profile w i =
  i = Array.length w.w_pcs
  || branch_direction cfg profile w.w_pcs.(i) = w.w_dirs.(i)
     && holds_from cfg profile w (i + 1)

let walk_holds cfg ~profile w = holds_from cfg profile w 0
