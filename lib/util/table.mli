(** ASCII table rendering for the CLI's tables and [perf report]'s
    comparison. *)

val render : header:string list -> rows:string list list -> string
(** Render a left-aligned first column, right-aligned remaining columns,
    with a separator under the header. Rows shorter than the header are
    padded with empty cells. *)

val print : header:string list -> rows:string list list -> unit
(** [render] followed by [print_string]. *)
