open Gb_vliw

type kind =
  | Tainted_load
  | Tainted_store
  | Transient_store
  | Tainted_commit
  | Unguarded_bypass
  | Unrealized_cut
  | Residual_flow

let kind_name = function
  | Tainted_load -> "tainted-load-address"
  | Tainted_store -> "tainted-store"
  | Transient_store -> "transient-store"
  | Tainted_commit -> "tainted-commit"
  | Unguarded_bypass -> "unguarded-bypass"
  | Unrealized_cut -> "unrealized-cut"
  | Residual_flow -> "residual-flow"

type violation = {
  v_kind : kind;
  v_pc : int;
  v_id : int;
  v_bundle : int;
  v_origins : int list;
}

type report = {
  violations : violation list;
  sched_spec_loads : int;
  flag_spec_loads : int;
  mem_ops : int;
  bundles : int;
}

module IS = Set.Make (Int)

(* Taint carried by a register value. [origins] are the guest pcs of the
   speculative loads it flowed from. [live] is the last bundle at which
   the value is still guarded (its youngest guard's bundle): reads at a
   later bundle see an architecturally-validated value. The record itself
   is sticky for the whole run — mirroring the pipeline's runtime taint,
   which never expires — so the audit's [dependent] verdict can never be
   true where the verifier saw a clean register.

   Bundles are visited in increasing order and every use of [live]
   compares it with the current bundle, so a window that closed before
   the read stays closed at every later one: a value is read as stored,
   and one whose window has closed keeps its old [live] (any number
   below the current bundle reads the same). *)
type taint = { live : int; origins : IS.t }

let read st = function
  | Vinsn.I _ -> None
  | Vinsn.R r -> if r = 0 then None else st.(r)

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
  exit_ids : int array;
  exit_bundles : int array;
  store_ids : int array;
  store_bundles : int array;
  chk_tags : int array;
  chk_bundles : int array;  (** MCB tag and bundle of every Chk *)
}

let positions (tr : Vinsn.trace) =
  let bundles = tr.Vinsn.bundles in
  let n_exits = ref 0 and n_stores = ref 0 and n_chks = ref 0 in
  for c = 0 to Array.length bundles - 1 do
    let bundle = bundles.(c) in
    for k = 0 to Array.length bundle - 1 do
      match bundle.(k) with
      | Vinsn.Branch _ | Vinsn.Exit _ -> incr n_exits
      | Vinsn.Chk _ ->
        incr n_exits;
        incr n_chks
      | Vinsn.Store _ -> incr n_stores
      | _ -> ()
    done
  done;
  let pos =
    {
      exit_ids = Array.make !n_exits 0;
      exit_bundles = Array.make !n_exits 0;
      store_ids = Array.make !n_stores 0;
      store_bundles = Array.make !n_stores 0;
      chk_tags = Array.make !n_chks 0;
      chk_bundles = Array.make !n_chks 0;
    }
  in
  let e = ref 0 and s = ref 0 and k_chk = ref 0 in
  for c = 0 to Array.length bundles - 1 do
    let bundle = bundles.(c) in
    for k = 0 to Array.length bundle - 1 do
      match bundle.(k) with
      | Vinsn.Branch { stub; _ } | Vinsn.Exit { stub } ->
        pos.exit_ids.(!e) <- tr.Vinsn.stubs.(stub).Vinsn.exit_id;
        pos.exit_bundles.(!e) <- c;
        incr e
      | Vinsn.Chk { tag; stub } ->
        pos.exit_ids.(!e) <- tr.Vinsn.stubs.(stub).Vinsn.exit_id;
        pos.exit_bundles.(!e) <- c;
        incr e;
        pos.chk_tags.(!k_chk) <- tag;
        pos.chk_bundles.(!k_chk) <- c;
        incr k_chk
      | Vinsn.Store { id; _ } ->
        pos.store_ids.(!s) <- id;
        pos.store_bundles.(!s) <- c;
        incr s
      | _ -> ()
    done
  done;
  pos

(* The latest bundle holding an op of [ids] with an id below [id], or -1:
   an op in bundle [c] is scheduled above such an op exactly when this is
   >= [c]. *)
let latest_before (ids : int array) (bundles : int array) (id : int) =
  let latest = ref (-1) in
  for i = 0 to Array.length ids - 1 do
    if ids.(i) < id && bundles.(i) > !latest then latest := bundles.(i)
  done;
  !latest

(* The last exit this op is scheduled above, or -1: taken, it would make
   the op transient. *)
let guard pos id = latest_before pos.exit_ids pos.exit_bundles id

(* The last store this op is scheduled above, or -1. *)
let last_store pos id = latest_before pos.store_ids pos.store_bundles id

(* The bundle of the last Chk of MCB tag [tag] in schedule order, or -1.
   A trace has at most one Chk per MCB entry in use, so the scan is
   short. *)
let rec chk_from pos tag i =
  if i < 0 then -1
  else if pos.chk_tags.(i) = tag then pos.chk_bundles.(i)
  else chk_from pos tag (i - 1)

let chk_of pos tag = chk_from pos tag (Array.length pos.chk_tags - 1)

(* A bundle's register writes, buffered in op order and landed together
   at the end of the cycle: every op of the bundle reads pre-bundle
   state, as in the pipeline. One buffer, sized by the widest bundle,
   serves every bundle of a pass. *)
type 'a writes = { w_dst : int array; w_val : 'a array; mutable w_n : int }

let widest (tr : Vinsn.trace) =
  Array.fold_left (fun m b -> Int.max m (Array.length b)) 0 tr.Vinsn.bundles

let writes tr =
  let n = widest tr in
  { w_dst = Array.make n 0; w_val = Array.make n None; w_n = 0 }

let write w dst t =
  if dst <> 0 then begin
    w.w_dst.(w.w_n) <- dst;
    w.w_val.(w.w_n) <- t;
    w.w_n <- w.w_n + 1
  end

let write_back w st =
  for i = 0 to w.w_n - 1 do
    st.(w.w_dst.(i)) <- w.w_val.(i)
  done;
  w.w_n <- 0

(* Commits run after the bundle's write-back, when every guard scheduled
   at bundle [c] or earlier has resolved: only a value whose live window
   extends strictly past [c] is still speculative at commit time. *)
let rec check_commits flag st c (stub : Vinsn.stub) = function
  | [] -> ()
  | (_, src) :: rest ->
    (match src with
    | Vinsn.R r when r <> 0 -> (
      match st.(r) with
      | Some t when t.live > c ->
        flag Tainted_commit ~pc:stub.Vinsn.target_pc ~id:stub.Vinsn.exit_id
          ~bundle:c (IS.elements t.origins)
      | Some _ | None -> ())
    | Vinsn.R _ | Vinsn.I _ -> ());
    check_commits flag st c stub rest

let verify_at pos (tr : Vinsn.trace) =
  let nb = Array.length tr.Vinsn.bundles in
  let st = Array.make (Int.max 1 tr.Vinsn.n_regs) None in
  let w = writes tr in
  let exits_here = Array.make (Array.length w.w_dst) 0 in
  let violations = ref [] in
  let sched_spec = ref 0 and flag_spec = ref 0 and mem_ops = ref 0 in
  let flag kind ~pc ~id ~bundle origins =
    violations :=
      { v_kind = kind; v_pc = pc; v_id = id; v_bundle = bundle;
        v_origins = origins }
      :: !violations
  in
  for c = 0 to nb - 1 do
    let bundle = tr.Vinsn.bundles.(c) in
    let n_exits = ref 0 in
    for k = 0 to Array.length bundle - 1 do
      match bundle.(k) with
      | Vinsn.Nop | Vinsn.Fence -> ()
      | Vinsn.Alu { dst; a; b; _ } -> write w dst (join (read st a) (read st b))
      | Vinsn.Mv { dst; src } -> write w dst (read st src)
      | Vinsn.Rdcycle { dst } -> write w dst None
      | Vinsn.Load { dst; base; spec; id; pc; hoisted; _ } ->
        incr mem_ops;
        let guard_b = guard pos id and store_b = last_store pos id in
        let guarded = guard_b >= c and bypassing = store_b >= c in
        let branch_live = if guarded then guard_b else -1 in
        let mcb_live =
          if not bypassing then -1
          else
            match spec with
            | Some tag when chk_of pos tag >= store_b -> chk_of pos tag
            | Some _ | None ->
              (* bypasses a store with no check resolving after it:
                 treat the value as never validated in this trace *)
              flag Unguarded_bypass ~pc ~id ~bundle:c [];
              nb
        in
        let sched = guarded || bypassing in
        let flagged = hoisted || Option.is_some spec in
        if sched then incr sched_spec;
        if flagged then incr flag_spec;
        let base_t = read st base in
        if Option.is_some base_t && guarded then
          flag Tainted_load ~pc ~id ~bundle:c (origins_of base_t);
        let seed =
          if sched || flagged then
            Some
              { live = Int.max branch_live mcb_live; origins = IS.singleton pc }
          else None
        in
        (* the loaded value inherits the address's taint, as in the
           pipeline: data at a speculatively-derived address is itself
           speculative *)
        write w dst (join seed base_t)
      | Vinsn.Store { src; base; id; pc; _ } ->
        incr mem_ops;
        if guard pos id >= c then flag Transient_store ~pc ~id ~bundle:c [];
        let src_t = read st src and base_t = read st base in
        if is_live c src_t || is_live c base_t then
          flag Tainted_store ~pc ~id ~bundle:c (origins_of (join src_t base_t))
      | Vinsn.Cflush { id; pc; _ } ->
        incr mem_ops;
        if guard pos id >= c then flag Transient_store ~pc ~id ~bundle:c []
      | Vinsn.Branch { stub; _ } | Vinsn.Chk { stub; _ } | Vinsn.Exit { stub }
        ->
        exits_here.(!n_exits) <- stub;
        incr n_exits
    done;
    write_back w st;
    (* the bundle's exits, last op first: the order its commit
       violations are reported in *)
    for i = !n_exits - 1 downto 0 do
      let stub = tr.Vinsn.stubs.(exits_here.(i)) in
      check_commits flag st c stub stub.Vinsn.commits
    done
  done;
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
  guard pos id >= bundle
  ||
  let store_b = last_store pos id in
  store_b >= bundle
  && match spec with None -> true | Some tag -> chk_of pos tag < store_b

let joins a b =
  match (a, b) with
  | None, t | t, None -> t
  | Some x, Some y -> Some (IS.union x y)

let elems = function Some s -> IS.elements s | None -> []

let is_fence_repair r = r.Gb_core.Leakcut.r_kind = Gb_core.Leakcut.Fence

let check_cut_at pos (tr : Vinsn.trace) ~(plan : Gb_core.Leakcut.plan) =
  let module L = Gb_core.Leakcut in
  let bundles = tr.Vinsn.bundles in
  let violations = ref [] in
  let flag kind ~pc ~id ~bundle origins =
    violations :=
      { v_kind = kind; v_pc = pc; v_id = id; v_bundle = bundle;
        v_origins = origins }
      :: !violations
  in
  (* The structural witnesses of repairs: the earliest identity-AND mask
     op and the number of fences. *)
  let first_mask = ref max_int and fence_ops = ref 0 in
  for c = 0 to Array.length bundles - 1 do
    let bundle = bundles.(c) in
    for k = 0 to Array.length bundle - 1 do
      match bundle.(k) with
      | Vinsn.Alu { op = Gb_riscv.Insn.AND; b = Vinsn.I m; _ }
        when Int64.equal m (-1L) ->
        if c < !first_mask then first_mask := c
      | Vinsn.Fence -> incr fence_ops
      | _ -> ()
    done
  done;
  (* Obligation 1: every repair in the plan — realized or not, so the
     deliberately-unsound sensitivity control is caught — is visible in
     the schedule. *)
  let fence_repairs =
    List.fold_left
      (fun n r -> if is_fence_repair r then n + 1 else n)
      0 plan.L.repairs
  in
  List.iter
    (fun r ->
      match r.L.r_kind with
      | L.Fence ->
        if !fence_ops < fence_repairs then
          flag Unrealized_cut ~pc:r.L.r_pc ~id:r.L.r_node ~bundle:(-1) []
      | L.Dep_reinsert | L.Mask ->
        (* where the protected load landed: the last load of its id *)
        let at = ref (-1) and at_pc = ref 0 and at_spec = ref None in
        for c = 0 to Array.length bundles - 1 do
          let bundle = bundles.(c) in
          for k = 0 to Array.length bundle - 1 do
            match bundle.(k) with
            | Vinsn.Load { id; pc; spec; _ } when id = r.L.r_node ->
              at := c;
              at_pc := pc;
              at_spec := spec
            | _ -> ()
          done
        done;
        let c = !at and pc = !at_pc in
        if c < 0 then
          (* the protected load vanished from the emitted unit *)
          flag Unrealized_cut ~pc:r.L.r_pc ~id:r.L.r_node ~bundle:(-1) []
        else begin
          if sched_speculative pos ~id:r.L.r_node ~bundle:c ~spec:!at_spec
          then flag Unrealized_cut ~pc ~id:r.L.r_node ~bundle:c [];
          if r.L.r_kind = L.Mask && not (!first_mask < c) then
            flag Unrealized_cut ~pc ~id:r.L.r_node ~bundle:c []
        end)
    plan.L.repairs;
  (* Obligation 2: residual flow.  Sticky taint (no live windows — any
     schedule-speculative value is a potential transmitter payload for
     the rest of the unit) seeded only from loads the schedule still
     speculates; parallel-read semantics as in [verify]. *)
  let st = Array.make (Int.max 1 tr.Vinsn.n_regs) None in
  let w = writes tr in
  for c = 0 to Array.length bundles - 1 do
    let bundle = bundles.(c) in
    for k = 0 to Array.length bundle - 1 do
      match bundle.(k) with
      | Vinsn.Nop | Vinsn.Fence -> ()
      | Vinsn.Alu { dst; a; b; _ } -> write w dst (joins (read st a) (read st b))
      | Vinsn.Mv { dst; src } -> write w dst (read st src)
      | Vinsn.Rdcycle { dst } -> write w dst None
      | Vinsn.Load { dst; base; spec; id; pc; _ } ->
        let sched = sched_speculative pos ~id ~bundle:c ~spec in
        let base_t = read st base in
        if sched && Option.is_some base_t then
          flag Residual_flow ~pc ~id ~bundle:c (elems base_t);
        let seed = if sched then Some (IS.singleton pc) else None in
        write w dst (joins seed base_t)
      | Vinsn.Store { src; base; id; pc; _ } ->
        if guard pos id >= c then begin
          let t = joins (read st src) (read st base) in
          if Option.is_some t then flag Residual_flow ~pc ~id ~bundle:c (elems t)
        end
      | Vinsn.Cflush { base; id; pc; _ } ->
        if guard pos id >= c then begin
          match read st base with
          | Some s -> flag Residual_flow ~pc ~id ~bundle:c (IS.elements s)
          | None -> ()
        end
      | Vinsn.Branch _ | Vinsn.Chk _ | Vinsn.Exit _ -> ()
    done;
    write_back w st
  done;
  List.rev !violations

let verify tr = verify_at (positions tr) tr

let check_cut tr ~plan = check_cut_at (positions tr) tr ~plan

let gate ?plan tr =
  let pos = positions tr in
  let r = verify_at pos tr in
  match plan with
  | None -> r
  | Some plan -> (
    match check_cut_at pos tr ~plan with
    | [] -> r
    | cut -> { r with violations = r.violations @ cut })

let ok r = r.violations = []

let violation_pcs r =
  List.sort_uniq Int.compare (List.map (fun v -> v.v_pc) r.violations)
