(** Two-pass assembler for guest programs.

    A program is a flat list of items (labels, instructions with symbolic
    targets, data directives) laid out sequentially from a base address.
    Instructions are 4-byte aligned; 8-byte data directives are 8-byte
    aligned. All code comes before all data: the text segment runs from
    the base to the end of the last instruction. *)

type item =
  | Label of string
  | Insn of Insn.t  (** already-resolved instruction *)
  | Branch_to of Insn.branch_cond * Reg.t * Reg.t * string
      (** conditional branch to a label *)
  | Jal_to of Reg.t * string  (** direct jump/call to a label *)
  | La of Reg.t * string  (** load the address of a label (lui+addi) *)
  | Li of Reg.t * int64
      (** load a constant; must fit in a signed 32-bit value *)
  | Dword of int64 list  (** 8-byte little-endian data *)
  | Dbyte of int list  (** raw bytes (each in \[0,255\]) *)
  | Dstring of string  (** raw bytes from a string (no terminator) *)
  | Space of int  (** [n] zero bytes *)
  | Align of int  (** align to a power-of-two boundary *)

type program = {
  base : int;  (** load address of the first byte *)
  image : bytes;  (** raw memory image *)
  symbols : (string, int) Hashtbl.t;  (** label -> absolute address *)
  entry : int;  (** address of the first instruction *)
  text_end : int;
      (** end of the last instruction: the text segment is
          [\[base, text_end)] *)
}

exception Error of string

val assemble : ?base:int -> item list -> program
(** Lay out and encode a program. [base] defaults to [0x1000].
    Raises {!Error} on duplicate/undefined labels, out-of-range branch
    offsets, or a data item placed before an instruction. *)

val load : Mem.t -> program -> unit
(** Copy the program image into guest memory, then declare its text
    segment there ({!Mem.set_text}): from then on a store into the code
    raises {!Mem.Fault}, and so does a fetch outside it. *)

val symbol : program -> string -> int
(** Address of a label. Raises {!Error} if undefined. *)
