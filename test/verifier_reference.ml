(* The post-scheduling verifier as it was before its positions became
   int arrays: guard and bypass queries filter consed lists of
   (id, bundle) pairs, MCB checks and load positions live in polymorphic
   [Hashtbl]s, and each bundle's write-back conses a list and reverses
   it. Kept verbatim as the reference that {!Gb_verify.Verifier.verify}
   and {!Gb_verify.Verifier.check_cut} must match violation for
   violation and field for field (test_verify's "verifier = reference"
   tests); it shares the kind, violation and report types. *)

open Gb_vliw
open Gb_verify.Verifier

module IS = Set.Make (Int)

(* Taint carried by a register value. [origins] are the guest pcs of the
   speculative loads it flowed from. [live] is the last bundle at which
   the value is still guarded (its youngest guard's bundle): reads at a
   later bundle see an architecturally-validated value. The record itself
   is sticky for the whole run — mirroring the pipeline's runtime taint,
   which never expires — so the audit's [dependent] verdict can never be
   true where the verifier saw a clean register. *)
type taint = { live : int; origins : IS.t }

let read st = function
  | Vinsn.I _ -> None
  | Vinsn.R r -> if r = 0 then None else st.(r)

(* Value read at bundle [c]: the sticky component always propagates; the
   live window only if the guard has not resolved yet. *)
let at c = function
  | None -> None
  | Some t -> Some (if t.live >= c then t else { t with live = -1 })

let join a b =
  match (a, b) with
  | None, t | t, None -> t
  | Some x, Some y ->
    Some
      { live = Int.max x.live y.live; origins = IS.union x.origins y.origins }

let is_live c = function Some t -> t.live >= c | None -> false

let origins_of = function Some t -> IS.elements t.origins | None -> []

(* Positions of every exit-like op, store and MCB check in the schedule.
   An exit-like at bundle [b] with exit id [e] "guards" any op with a
   larger id in a bundle <= [b]: when that exit is taken, the op has
   already executed even though it is architecturally after the exit. *)
type positions = {
  exits : (int * int) list;  (** (exit_id, bundle) *)
  stores : (int * int) list;  (** (id, bundle) *)
  chks : (int, int) Hashtbl.t;  (** MCB tag -> bundle of its Chk *)
}

let positions (tr : Vinsn.trace) =
  let exits = ref [] and stores = ref [] in
  let chks = Hashtbl.create 8 in
  Array.iteri
    (fun c bundle ->
      Array.iter
        (fun op ->
          match op with
          | Vinsn.Branch { stub; _ } | Vinsn.Exit { stub } ->
            exits := (tr.Vinsn.stubs.(stub).Vinsn.exit_id, c) :: !exits
          | Vinsn.Chk { tag; stub } ->
            exits := (tr.Vinsn.stubs.(stub).Vinsn.exit_id, c) :: !exits;
            Hashtbl.replace chks tag c
          | Vinsn.Store { id; _ } -> stores := (id, c) :: !stores
          | _ -> ())
        bundle)
    tr.Vinsn.bundles;
  { exits = !exits; stores = !stores; chks }

(* Exits this op is scheduled above: taken, they would make it transient. *)
let unresolved_exits pos ~id ~bundle =
  List.filter (fun (e, b) -> e < id && b >= bundle) pos.exits

let verify (tr : Vinsn.trace) =
  let pos = positions tr in
  let nb = Array.length tr.Vinsn.bundles in
  let st = Array.make (Int.max 1 tr.Vinsn.n_regs) None in
  let violations = ref [] in
  let sched_spec = ref 0 and flag_spec = ref 0 and mem_ops = ref 0 in
  let flag kind ~pc ~id ~bundle origins =
    violations :=
      { v_kind = kind; v_pc = pc; v_id = id; v_bundle = bundle;
        v_origins = origins }
      :: !violations
  in
  Array.iteri
    (fun c bundle ->
      (* parallel-read semantics, as in the pipeline: every op of the
         bundle reads pre-bundle state; writes land at end of cycle *)
      let writes = ref [] in
      let exits_here = ref [] in
      let write dst t = if dst <> 0 then writes := (dst, t) :: !writes in
      Array.iter
        (fun op ->
          match op with
          | Vinsn.Nop | Vinsn.Fence -> ()
          | Vinsn.Alu { dst; a; b; _ } ->
            write dst (join (at c (read st a)) (at c (read st b)))
          | Vinsn.Mv { dst; src } -> write dst (at c (read st src))
          | Vinsn.Rdcycle { dst } -> write dst None
          | Vinsn.Load { dst; base; spec; id; pc; hoisted; _ } ->
            incr mem_ops;
            let guards = unresolved_exits pos ~id ~bundle:c in
            let bypassed =
              List.filter (fun (s, b) -> s < id && b >= c) pos.stores
            in
            let branch_live =
              List.fold_left (fun acc (_, b) -> Int.max acc b) (-1) guards
            in
            let mcb_live =
              match bypassed with
              | [] -> -1
              | _ :: _ -> (
                let last_store =
                  List.fold_left (fun acc (_, b) -> Int.max acc b) (-1) bypassed
                in
                match spec with
                | Some tag when
                    (match Hashtbl.find_opt pos.chks tag with
                     | Some cb -> cb >= last_store
                     | None -> false) ->
                  Hashtbl.find pos.chks tag
                | Some _ | None ->
                  (* bypasses a store with no check resolving after it:
                     treat the value as never validated in this trace *)
                  flag Unguarded_bypass ~pc ~id ~bundle:c [];
                  nb)
            in
            let sched = guards <> [] || bypassed <> [] in
            let flagged = hoisted || spec <> None in
            if sched then incr sched_spec;
            if flagged then incr flag_spec;
            let base_t = at c (read st base) in
            if base_t <> None && guards <> [] then
              flag Tainted_load ~pc ~id ~bundle:c (origins_of base_t);
            let seed =
              if sched || flagged then
                Some
                  {
                    live = Int.max branch_live mcb_live;
                    origins = IS.singleton pc;
                  }
              else None
            in
            (* the loaded value inherits the address's taint, as in the
               pipeline: data at a speculatively-derived address is itself
               speculative *)
            write dst (join seed base_t)
          | Vinsn.Store { src; base; id; pc; _ } ->
            incr mem_ops;
            if unresolved_exits pos ~id ~bundle:c <> [] then
              flag Transient_store ~pc ~id ~bundle:c [];
            let src_t = at c (read st src) and base_t = at c (read st base) in
            if is_live c src_t || is_live c base_t then
              flag Tainted_store ~pc ~id ~bundle:c
                (origins_of (join src_t base_t))
          | Vinsn.Cflush { id; pc; _ } ->
            incr mem_ops;
            if unresolved_exits pos ~id ~bundle:c <> [] then
              flag Transient_store ~pc ~id ~bundle:c []
          | Vinsn.Branch { stub; _ } | Vinsn.Chk { stub; _ }
          | Vinsn.Exit { stub } ->
            exits_here := stub :: !exits_here)
        bundle;
      List.iter (fun (dst, t) -> st.(dst) <- t) (List.rev !writes);
      (* Commits run after the bundle's write-back, when every guard
         scheduled at bundle [c] or earlier has resolved: only a value
         whose live window extends strictly past [c] is still
         speculative at commit time. *)
      List.iter
        (fun s ->
          let stub = tr.Vinsn.stubs.(s) in
          List.iter
            (fun (_, src) ->
              match src with
              | Vinsn.R r when r <> 0 -> (
                match st.(r) with
                | Some t when t.live > c ->
                  flag Tainted_commit ~pc:stub.Vinsn.target_pc
                    ~id:stub.Vinsn.exit_id ~bundle:c (IS.elements t.origins)
                | Some _ | None -> ())
              | Vinsn.R _ | Vinsn.I _ -> ())
            stub.Vinsn.commits)
        !exits_here)
    tr.Vinsn.bundles;
  {
    violations = List.rev !violations;
    sched_spec_loads = !sched_spec;
    flag_spec_loads = !flag_spec;
    mem_ops = !mem_ops;
    bundles = nb;
  }

(* ------------------------------------------------------------------ *)
(* Cut-soundness pass (Min_cut mode).

   Venkman-style enforcement of the min-cut plan on the emitted unit:
   speculation facts are re-derived from the schedule alone, so a repair
   the optimizer believed realized but that the scheduler or code
   generator undid still fails here.  Two obligations:

   - every planned repair is visibly materialized (the protected load is
     present and no longer schedule-speculative; a mask repair also has
     its identity-AND in a strictly earlier bundle; fence repairs have
     their barriers) -> [Unrealized_cut] otherwise;

   - no residual source->transmitter path survives: an independent
     sticky taint pass seeded only by loads the schedule still
     speculates must reach no speculative load address and no transient
     store/flush operand -> [Residual_flow] otherwise.

   Commits are deliberately left to [verify]'s live-window pass: by
   commit time the committing exit has resolved, so sticky taint there
   is architecturally validated data and a sticky check would reject
   sound schedules. *)

(* Schedule-speculative, mirroring [verify]: above an unresolved earlier
   exit, or bypassing an earlier store without an MCB check resolving
   after the last bypassed store. *)
let sched_speculative pos ~id ~bundle ~spec =
  unresolved_exits pos ~id ~bundle <> []
  ||
  match List.filter (fun (s, b) -> s < id && b >= bundle) pos.stores with
  | [] -> false
  | bypassed -> (
    let last_store =
      List.fold_left (fun acc (_, b) -> Int.max acc b) (-1) bypassed
    in
    match spec with
    | None -> true
    | Some tag -> (
      match Hashtbl.find_opt pos.chks tag with
      | Some cb -> cb < last_store
      | None -> true))

let check_cut (tr : Vinsn.trace) ~(plan : Gb_core.Leakcut.plan) =
  let module L = Gb_core.Leakcut in
  let pos = positions tr in
  let violations = ref [] in
  let flag kind ~pc ~id ~bundle origins =
    violations :=
      { v_kind = kind; v_pc = pc; v_id = id; v_bundle = bundle;
        v_origins = origins }
      :: !violations
  in
  (* Where every load landed, plus the structural witnesses of repairs:
     identity-AND mask ops and fences. *)
  let loads = Hashtbl.create 16 in
  let mask_bundles = ref [] and fence_ops = ref 0 in
  Array.iteri
    (fun c bundle ->
      Array.iter
        (fun op ->
          match op with
          | Vinsn.Load { id; pc; spec; _ } ->
            Hashtbl.replace loads id (c, pc, spec)
          | Vinsn.Alu { op = Gb_riscv.Insn.AND; b = Vinsn.I m; _ }
            when Int64.equal m (-1L) ->
            mask_bundles := c :: !mask_bundles
          | Vinsn.Fence -> incr fence_ops
          | _ -> ())
        bundle)
    tr.Vinsn.bundles;
  (* Obligation 1: every repair in the plan — realized or not, so the
     deliberately-unsound sensitivity control is caught — is visible in
     the schedule. *)
  let fence_repairs =
    List.length (List.filter (fun r -> r.L.r_kind = L.Fence) plan.L.repairs)
  in
  List.iter
    (fun r ->
      match r.L.r_kind with
      | L.Fence ->
        if !fence_ops < fence_repairs then
          flag Unrealized_cut ~pc:r.L.r_pc ~id:r.L.r_node ~bundle:(-1) []
      | L.Dep_reinsert | L.Mask -> (
        match Hashtbl.find_opt loads r.L.r_node with
        | None ->
          (* the protected load vanished from the emitted unit *)
          flag Unrealized_cut ~pc:r.L.r_pc ~id:r.L.r_node ~bundle:(-1) []
        | Some (c, pc, spec) ->
          if sched_speculative pos ~id:r.L.r_node ~bundle:c ~spec then
            flag Unrealized_cut ~pc ~id:r.L.r_node ~bundle:c [];
          if
            r.L.r_kind = L.Mask
            && not (List.exists (fun mb -> mb < c) !mask_bundles)
          then flag Unrealized_cut ~pc ~id:r.L.r_node ~bundle:c []))
    plan.L.repairs;
  (* Obligation 2: residual flow.  Sticky taint (no live windows — any
     schedule-speculative value is a potential transmitter payload for
     the rest of the unit) seeded only from loads the schedule still
     speculates; parallel-read semantics as in [verify]. *)
  let st = Array.make (Int.max 1 tr.Vinsn.n_regs) None in
  let read_t = function
    | Vinsn.I _ -> None
    | Vinsn.R r -> if r = 0 then None else st.(r)
  in
  let joins a b =
    match (a, b) with
    | None, t | t, None -> t
    | Some x, Some y -> Some (IS.union x y)
  in
  let elems = function Some s -> IS.elements s | None -> [] in
  Array.iteri
    (fun c bundle ->
      let writes = ref [] in
      let write dst t = if dst <> 0 then writes := (dst, t) :: !writes in
      Array.iter
        (fun op ->
          match op with
          | Vinsn.Nop | Vinsn.Fence -> ()
          | Vinsn.Alu { dst; a; b; _ } -> write dst (joins (read_t a) (read_t b))
          | Vinsn.Mv { dst; src } -> write dst (read_t src)
          | Vinsn.Rdcycle { dst } -> write dst None
          | Vinsn.Load { dst; base; spec; id; pc; _ } ->
            let sched = sched_speculative pos ~id ~bundle:c ~spec in
            let base_t = read_t base in
            if sched && base_t <> None then
              flag Residual_flow ~pc ~id ~bundle:c (elems base_t);
            let seed = if sched then Some (IS.singleton pc) else None in
            write dst (joins seed base_t)
          | Vinsn.Store { src; base; id; pc; _ } ->
            if unresolved_exits pos ~id ~bundle:c <> [] then (
              let t = joins (read_t src) (read_t base) in
              if t <> None then flag Residual_flow ~pc ~id ~bundle:c (elems t))
          | Vinsn.Cflush { base; id; pc; _ } ->
            if unresolved_exits pos ~id ~bundle:c <> [] then (
              match read_t base with
              | Some s -> flag Residual_flow ~pc ~id ~bundle:c (IS.elements s)
              | None -> ())
          | Vinsn.Branch _ | Vinsn.Chk _ | Vinsn.Exit _ -> ())
        bundle;
      List.iter (fun (dst, t) -> st.(dst) <- t) (List.rev !writes))
    tr.Vinsn.bundles;
  List.rev !violations
