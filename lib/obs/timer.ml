type span = { sp_phase : string; sp_start_us : float; sp_dur_us : float }

type acc = { mutable calls : int; mutable total_us : float }

(* Seconds on the monotonic clock: nanosecond resolution, so phases well
   below a microsecond (a first-pass translation) still read. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  origin : float;  (** {!now} at creation *)
  totals : (string, acc) Hashtbl.t;
  spans : span Ring.t;
}

let create ?(span_capacity = 8192) () =
  {
    origin = now ();
    totals = Hashtbl.create 16;
    spans = Ring.create span_capacity;
  }

let time t phase f =
  let start = now () in
  let record () =
    let stop = now () in
    let dur_us = (stop -. start) *. 1e6 in
    (match Hashtbl.find_opt t.totals phase with
    | Some a ->
      a.calls <- a.calls + 1;
      a.total_us <- a.total_us +. dur_us
    | None -> Hashtbl.add t.totals phase { calls = 1; total_us = dur_us });
    Ring.push t.spans
      { sp_phase = phase; sp_start_us = (start -. t.origin) *. 1e6; sp_dur_us = dur_us }
  in
  Fun.protect ~finally:record f

type total = { t_phase : string; t_calls : int; t_total_us : float }

let totals t =
  Hashtbl.fold
    (fun phase a acc ->
      { t_phase = phase; t_calls = a.calls; t_total_us = a.total_us } :: acc)
    t.totals []
  |> List.sort (fun a b -> compare (b.t_total_us, a.t_phase) (a.t_total_us, b.t_phase))

let spans t = Ring.to_list t.spans
