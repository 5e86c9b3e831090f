type stats = { mutable conflicts : int }

type t = {
  addrs : int array;
  sizes : int array;
  live : bool array;
  conflict : bool array;
  stats : stats;
  mutable fault_hook : (tag:int -> conflict:bool -> bool) option;
  obs : Gb_obs.Sink.t;
}

let create ?(obs = Gb_obs.Sink.noop) ~entries () =
  if entries < 0 then invalid_arg "Mcb.create: negative entries";
  {
    addrs = Array.make entries 0;
    sizes = Array.make entries 0;
    live = Array.make entries false;
    conflict = Array.make entries false;
    stats = { conflicts = 0 };
    fault_hook = None;
    obs;
  }

let entries t = Array.length t.addrs

let enabled t = Array.length t.addrs > 0

let set_fault_hook t hook = t.fault_hook <- hook

let clear t =
  Array.fill t.live 0 (Array.length t.live) false;
  Array.fill t.conflict 0 (Array.length t.conflict) false

let alloc t ~tag ~addr ~size =
  (* entries=0 means the MCB is disabled: every operation is an explicit
     no-op (the translator must not emit speculative memory ops in that
     case — the processor clamps the optimizer's mcb_tags accordingly) *)
  if tag >= 0 && tag < Array.length t.addrs then begin
    t.addrs.(tag) <- addr;
    t.sizes.(tag) <- size;
    t.live.(tag) <- true;
    t.conflict.(tag) <- false
  end

let overlap a1 s1 a2 s2 = a1 < a2 + s2 && a2 < a1 + s1

(* [pc] is a required label: an optional argument here would box a
   [Some pc] on every store the pipeline executes *)
let store_probe t ~pc ~addr ~size =
  for tag = 0 to Array.length t.addrs - 1 do
    if t.live.(tag) && not t.conflict.(tag)
       && overlap addr size t.addrs.(tag) t.sizes.(tag)
    then begin
      t.conflict.(tag) <- true;
      t.stats.conflicts <- t.stats.conflicts + 1;
      if Gb_obs.Sink.is_active t.obs then begin
        Gb_obs.Sink.event t.obs ~pc:addr (Gb_obs.Event.Mcb_conflict { addr });
        (* remember which store pc flagged the conflict: the attribution
           report ties rollback cycles back to the stores causing them *)
        match Gb_obs.Sink.attrib t.obs with
        | Some a -> Gb_obs.Attrib.note_conflict a ~pc
        | None -> ()
      end
    end
  done

let check t ~tag =
  let c =
    if tag < 0 || tag >= Array.length t.addrs || not t.live.(tag) then false
    else begin
      t.live.(tag) <- false;
      let c = t.conflict.(tag) in
      t.conflict.(tag) <- false;
      c
    end
  in
  match t.fault_hook with None -> c | Some hook -> hook ~tag ~conflict:c

let stats t = t.stats
