type opri =
  | ADDI
  | SLTI
  | SLTIU
  | XORI
  | ORI
  | ANDI
  | SLLI
  | SRLI
  | SRAI
  | ADDIW
  | SLLIW
  | SRLIW
  | SRAIW

type oprr =
  | ADD
  | SUB
  | SLL
  | SLT
  | SLTU
  | XOR
  | SRL
  | SRA
  | OR
  | AND
  | ADDW
  | SUBW
  | SLLW
  | SRLW
  | SRAW
  | MUL
  | MULH
  | MULHSU
  | MULHU
  | DIV
  | DIVU
  | REM
  | REMU
  | MULW
  | DIVW
  | DIVUW
  | REMW
  | REMUW

type width = B | H | W | D

type branch_cond = BEQ | BNE | BLT | BGE | BLTU | BGEU

type t =
  | Op_imm of opri * Reg.t * Reg.t * int
  | Op of oprr * Reg.t * Reg.t * Reg.t
  | Lui of Reg.t * int
  | Auipc of Reg.t * int
  | Load of width * bool * Reg.t * Reg.t * int
  | Store of width * Reg.t * Reg.t * int
  | Branch of branch_cond * Reg.t * Reg.t * int
  | Jal of Reg.t * int
  | Jalr of Reg.t * Reg.t * int
  | Ecall
  | Fence
  | Rdcycle of Reg.t
  | Cflush of Reg.t

let size = 4

let negate_cond = function
  | BEQ -> BNE
  | BNE -> BEQ
  | BLT -> BGE
  | BGE -> BLT
  | BLTU -> BGEU
  | BGEU -> BLTU

let norm rd = if rd = 0 then None else Some rd

let dest = function
  | Op_imm (_, rd, _, _) | Op (_, rd, _, _) | Lui (rd, _) | Auipc (rd, _)
  | Load (_, _, rd, _, _) | Jal (rd, _) | Jalr (rd, _, _) | Rdcycle rd ->
    norm rd
  | Store _ | Branch _ | Ecall | Fence | Cflush _ -> None

let sources insn =
  let regs =
    match insn with
    | Op_imm (_, _, rs1, _) | Load (_, _, _, rs1, _) | Jalr (_, rs1, _)
    | Cflush rs1 ->
      [ rs1 ]
    | Op (_, _, rs1, rs2) | Store (_, rs2, rs1, _) | Branch (_, rs1, rs2, _)
      ->
      [ rs1; rs2 ]
    | Lui _ | Auipc _ | Jal _ | Ecall | Fence | Rdcycle _ -> []
  in
  List.filter (fun r -> r <> 0) regs

(* Field by field rather than [=]: every enum and register is an
   immediate, so this compiles to int tests and never calls
   [caml_compare] (INTERNALS section 12). *)
let equal a b =
  match (a, b) with
  | Op_imm (op, rd, rs1, imm), Op_imm (op', rd', rs1', imm') ->
    (op : opri) = op' && rd = rd' && rs1 = rs1' && imm = imm'
  | Op (op, rd, rs1, rs2), Op (op', rd', rs1', rs2') ->
    (op : oprr) = op' && rd = rd' && rs1 = rs1' && rs2 = rs2'
  | Lui (rd, imm), Lui (rd', imm') | Auipc (rd, imm), Auipc (rd', imm') ->
    rd = rd' && imm = imm'
  | Load (w, u, rd, rs1, off), Load (w', u', rd', rs1', off') ->
    (w : width) = w' && u = u' && rd = rd' && rs1 = rs1' && off = off'
  | Store (w, rs2, rs1, off), Store (w', rs2', rs1', off') ->
    (w : width) = w' && rs2 = rs2' && rs1 = rs1' && off = off'
  | Branch (c, rs1, rs2, off), Branch (c', rs1', rs2', off') ->
    (c : branch_cond) = c' && rs1 = rs1' && rs2 = rs2' && off = off'
  | Jal (rd, off), Jal (rd', off') -> rd = rd' && off = off'
  | Jalr (rd, rs1, off), Jalr (rd', rs1', off') ->
    rd = rd' && rs1 = rs1' && off = off'
  | Ecall, Ecall | Fence, Fence -> true
  | Rdcycle rd, Rdcycle rd' | Cflush rd, Cflush rd' -> rd = rd'
  | ( ( Op_imm _ | Op _ | Lui _ | Auipc _ | Load _ | Store _ | Branch _
      | Jal _ | Jalr _ | Ecall | Fence | Rdcycle _ | Cflush _ ),
      _ ) ->
    false

let is_control = function
  | Branch _ | Jal _ | Jalr _ | Ecall -> true
  | Op_imm _ | Op _ | Lui _ | Auipc _ | Load _ | Store _ | Fence | Rdcycle _
  | Cflush _ ->
    false

let opri_name = function
  | ADDI -> "addi"
  | SLTI -> "slti"
  | SLTIU -> "sltiu"
  | XORI -> "xori"
  | ORI -> "ori"
  | ANDI -> "andi"
  | SLLI -> "slli"
  | SRLI -> "srli"
  | SRAI -> "srai"
  | ADDIW -> "addiw"
  | SLLIW -> "slliw"
  | SRLIW -> "srliw"
  | SRAIW -> "sraiw"

let oprr_name = function
  | ADD -> "add"
  | SUB -> "sub"
  | SLL -> "sll"
  | SLT -> "slt"
  | SLTU -> "sltu"
  | XOR -> "xor"
  | SRL -> "srl"
  | SRA -> "sra"
  | OR -> "or"
  | AND -> "and"
  | ADDW -> "addw"
  | SUBW -> "subw"
  | SLLW -> "sllw"
  | SRLW -> "srlw"
  | SRAW -> "sraw"
  | MUL -> "mul"
  | MULH -> "mulh"
  | MULHSU -> "mulhsu"
  | MULHU -> "mulhu"
  | DIV -> "div"
  | DIVU -> "divu"
  | REM -> "rem"
  | REMU -> "remu"
  | MULW -> "mulw"
  | DIVW -> "divw"
  | DIVUW -> "divuw"
  | REMW -> "remw"
  | REMUW -> "remuw"

let width_name ~unsigned = function
  | B -> if unsigned then "lbu" else "b"
  | H -> if unsigned then "lhu" else "h"
  | W -> if unsigned then "lwu" else "w"
  | D -> "d"

let cond_name = function
  | BEQ -> "beq"
  | BNE -> "bne"
  | BLT -> "blt"
  | BGE -> "bge"
  | BLTU -> "bltu"
  | BGEU -> "bgeu"

let pp ppf insn =
  let r = Reg.name in
  match insn with
  | Op_imm (op, rd, rs1, imm) ->
    Format.fprintf ppf "%s %s, %s, %d" (opri_name op) (r rd) (r rs1) imm
  | Op (op, rd, rs1, rs2) ->
    Format.fprintf ppf "%s %s, %s, %s" (oprr_name op) (r rd) (r rs1) (r rs2)
  | Lui (rd, imm) -> Format.fprintf ppf "lui %s, 0x%x" (r rd) imm
  | Auipc (rd, imm) -> Format.fprintf ppf "auipc %s, 0x%x" (r rd) imm
  | Load (w, unsigned, rd, rs1, off) ->
    let mnemonic =
      if unsigned then width_name ~unsigned:true w
      else "l" ^ width_name ~unsigned:false w
    in
    Format.fprintf ppf "%s %s, %d(%s)" mnemonic (r rd) off (r rs1)
  | Store (w, rs2, rs1, off) ->
    Format.fprintf ppf "s%s %s, %d(%s)"
      (width_name ~unsigned:false w)
      (r rs2) off (r rs1)
  | Branch (cond, rs1, rs2, off) ->
    Format.fprintf ppf "%s %s, %s, %d" (cond_name cond) (r rs1) (r rs2) off
  | Jal (rd, off) -> Format.fprintf ppf "jal %s, %d" (r rd) off
  | Jalr (rd, rs1, off) ->
    Format.fprintf ppf "jalr %s, %d(%s)" (r rd) off (r rs1)
  | Ecall -> Format.fprintf ppf "ecall"
  | Fence -> Format.fprintf ppf "fence"
  | Rdcycle rd -> Format.fprintf ppf "rdcycle %s" (r rd)
  | Cflush rs1 -> Format.fprintf ppf "cflush (%s)" (r rs1)

let to_string insn = Format.asprintf "%a" pp insn
