(** Disassembler: render guest memory ranges as annotated rv64im
    listings (objdump-style), resolving branch and jump targets back to
    symbolic labels when a program's symbol table is available. *)

type line = {
  addr : int;
  word : int;  (** raw 32-bit instruction word *)
  text : string;  (** rendered instruction, or [".word 0x..."] if illegal *)
  target : int option;  (** branch/jump destination, when applicable *)
}

val disassemble : Mem.t -> addr:int -> len:int -> line list
(** Decode [len] bytes starting at the 4-aligned address [addr], read as
    data, so a range outside the text segment lists too. Illegal
    encodings are rendered as raw words rather than raising. *)

val pp_program :
  ?symbols:(string, int) Hashtbl.t -> Format.formatter -> line list -> unit
(** Print a listing; addresses with a symbol get a label line, and
    branch/jump targets are annotated with the label they point at. *)

val dump : Asm.program -> string
(** Disassemble a whole assembled program (code and data — data decodes as
    raw words or accidental instructions, as with any flat binary). *)
