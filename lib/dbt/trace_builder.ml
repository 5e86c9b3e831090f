type config = {
  max_insns : int;
  max_visits : int;
  bias_threshold : float;
  min_samples : int;
}

let default_config =
  { max_insns = 96; max_visits = 4; bias_threshold = 0.8; min_samples = 8 }

exception Build_failure of string

(* Direction codes, as recorded in a walk: [none] for a pc that is not a
   conditional branch, the three others for the bias read at one. *)
let dir_none = 0

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

(* The word at [pc], or -1 where the fetch faults: instruction words are
   unsigned 32-bit, so -1 is never a word. *)
let fetch mem pc =
  match Gb_riscv.Mem.load_insn_word mem ~addr:pc with
  | w -> w
  | exception Gb_riscv.Mem.Fault _ -> -1

type walk = { w_pcs : int array; w_words : int array; w_dirs : int array }

type recorder = {
  mutable r_pcs : int array;
  mutable r_words : int array;
  mutable r_dirs : int array;
  mutable r_len : int;
}

let recorder () =
  { r_pcs = Array.make 128 0; r_words = Array.make 128 0;
    r_dirs = Array.make 128 0; r_len = 0 }

let record r pc word dir =
  let n = r.r_len in
  if n = Array.length r.r_pcs then begin
    let grow a = Array.append a (Array.make n 0) in
    r.r_pcs <- grow r.r_pcs;
    r.r_words <- grow r.r_words;
    r.r_dirs <- grow r.r_dirs
  end;
  r.r_pcs.(n) <- pc;
  r.r_words.(n) <- word;
  r.r_dirs.(n) <- dir;
  r.r_len <- n + 1

module Visits = Hashtbl.Make (Int)

(* The walk proper. Every input it reads goes through [fetch] and
   [branch_direction], and with a recorder each read lands in it in
   order: the pc, its word and the direction taken there. A pc the walk
   stops at without fetching (instruction budget, revisit limit) is not
   an input: the walk so far decides it. *)
let form recorder cfg ~mem ~profile ~entry =
  let visits = Visits.create 64 in
  let steps = ref [] in
  let count = ref 0 in
  let push step =
    steps := step :: !steps;
    incr count
  in
  let note pc word dir =
    match recorder with Some r -> record r pc word dir | None -> ()
  in
  let rec walk pc =
    if !count >= cfg.max_insns then pc
    else
      let v = Option.value ~default:0 (Visits.find_opt visits pc) in
      if v >= cfg.max_visits then pc
      else begin
        Visits.replace visits pc (v + 1);
        let word = fetch mem pc in
        (* a faulting fetch stops the walk as an ecall does *)
        match
          if word < 0 then Gb_riscv.Insn.Ecall else Gb_riscv.Decode.decode word
        with
        | exception Gb_riscv.Decode.Illegal _ ->
          note pc word dir_none;
          pc
        | Gb_riscv.Insn.Ecall | Gb_riscv.Insn.Jalr _ ->
          note pc word dir_none;
          pc
        | Gb_riscv.Insn.Jal (rd, off) as insn ->
          note pc word dir_none;
          if rd <> 0 then push { Gb_ir.Gtrace.pc; insn; exit_cond = None };
          walk (pc + off)
        | Gb_riscv.Insn.Branch (cond, _, _, off) as insn ->
          let dir = branch_direction cfg profile pc in
          note pc word dir;
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
          note pc word dir_none;
          push { Gb_ir.Gtrace.pc; insn; exit_cond = None };
          walk (pc + 4)
      end
  in
  let fall_pc = walk entry in
  if !count = 0 then raise (Build_failure "empty trace")
  else { Gb_ir.Gtrace.entry; steps = List.rev !steps; fall_pc }

let build cfg ~mem ~profile ~entry = form None cfg ~mem ~profile ~entry

let build_walk r cfg ~mem ~profile ~entry =
  r.r_len <- 0;
  let gtrace = form (Some r) cfg ~mem ~profile ~entry in
  let n = r.r_len in
  ( gtrace,
    { w_pcs = Array.sub r.r_pcs 0 n; w_words = Array.sub r.r_words 0 n;
      w_dirs = Array.sub r.r_dirs 0 n } )

(* A build from the walk's entry is a deterministic function of the
   config and of the inputs it reads, and the walk holds every one of
   them in reading order: while each still reads the same, the rebuild
   takes the same steps. *)
let rec holds_from cfg mem profile w i =
  i = Array.length w.w_pcs
  ||
  let pc = w.w_pcs.(i) in
  fetch mem pc = w.w_words.(i)
  && (let d = w.w_dirs.(i) in
      d = dir_none || branch_direction cfg profile pc = d)
  && holds_from cfg mem profile w (i + 1)

let walk_holds cfg ~mem ~profile w = holds_from cfg mem profile w 0
