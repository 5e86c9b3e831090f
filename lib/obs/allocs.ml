(* An all-float record is stored flat, so updating [mark] or [counted]
   writes a raw double in place. In a mixed record each float field is
   a pointer to a box, and every update would allocate a fresh one
   inside the very window being measured. *)
type counts = {
  mutable mark : float;  (* [Gc.minor_words] at the last start/resume *)
  mutable counted : float;  (* words folded in by pause/stop *)
}

type t = {
  c : counts;
  mutable counting : bool;
  mutable depth : int;  (* exclusion-window nesting; counted iff 0 *)
}

let create () = { c = { mark = 0.; counted = 0. }; counting = false; depth = 0 }

let start t =
  t.c.counted <- 0.;
  t.depth <- 0;
  t.counting <- true;
  t.c.mark <- Gc.minor_words ()

let stop t =
  if t.counting then begin
    if t.depth = 0 then
      t.c.counted <- t.c.counted +. (Gc.minor_words () -. t.c.mark);
    t.counting <- false
  end;
  t.c.counted

(* Only the outermost pause/resume pair touches the clock: a nested
   exclusion (translate triggering a first pass) is already inside an
   open window. *)
let pause t =
  if t.counting then begin
    if t.depth = 0 then
      t.c.counted <- t.c.counted +. (Gc.minor_words () -. t.c.mark);
    t.depth <- t.depth + 1
  end

let resume t =
  if t.counting then begin
    t.depth <- t.depth - 1;
    if t.depth = 0 then t.c.mark <- Gc.minor_words ()
  end

let counting t = t.counting

let per_kinsn ~words ~insns =
  if insns = 0L then 0. else 1000. *. words /. Int64.to_float insns
