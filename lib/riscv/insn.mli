(** The rv64im guest instruction set, plus two custom instructions used by
    the side-channel experiments ([Rdcycle] as a reader of the cycle CSR and
    [Cflush] as a line-granular data-cache flush, mirroring the paper's
    line-by-line RISC-V flush). *)

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
  | Op_imm of opri * Reg.t * Reg.t * int  (** rd, rs1, 12-bit immediate *)
  | Op of oprr * Reg.t * Reg.t * Reg.t  (** rd, rs1, rs2 *)
  | Lui of Reg.t * int  (** rd, 20-bit upper immediate *)
  | Auipc of Reg.t * int  (** rd, 20-bit upper immediate *)
  | Load of width * bool * Reg.t * Reg.t * int
      (** width, unsigned?, rd, base, 12-bit offset *)
  | Store of width * Reg.t * Reg.t * int  (** width, src, base, offset *)
  | Branch of branch_cond * Reg.t * Reg.t * int
      (** cond, rs1, rs2, pc-relative byte offset *)
  | Jal of Reg.t * int  (** rd, pc-relative byte offset *)
  | Jalr of Reg.t * Reg.t * int  (** rd, base, offset *)
  | Ecall
  | Fence
  | Rdcycle of Reg.t  (** rd <- cycle counter (csrrs rd, cycle, x0) *)
  | Cflush of Reg.t  (** flush the D$ line containing address \[rs1\] *)

val size : int
(** Instruction size in bytes (4). *)

val negate_cond : branch_cond -> branch_cond
(** Complement of a branch condition (BEQ <-> BNE, ...). *)

val dest : t -> Reg.t option
(** Architectural destination register, if any ([x0] is reported as [None]
    since writes to it are discarded). *)

val sources : t -> Reg.t list
(** Architectural source registers (without [x0]). *)

val equal : t -> t -> bool
(** Structural equality, compared field by field without [caml_compare]. *)

val is_control : t -> bool
(** True for branches, jumps and [Ecall]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
