(* BLADE-style minimum leak-cut placement (Vassena et al., wasmtime's
   BLADE mode): instead of repairing each detected pattern locally, view
   transient leakage as a flow problem over the trace DFG —

     sources       = speculative (unconstrained, hoistable) loads, whose
                     results are transient values;
     transmitters  = address operands of speculative memory accesses: a
                     speculative load whose address derives from a
                     transient value imprints it on the cache.

   Every source→transmitter path must be severed. The cheapest sound set
   of severing points is a minimum s-t cut, with two repair primitives as
   cuttable edges (capacities = estimated stall cost from
   {!Gb_ir.Latency}):

     - cut at the source (capacity [lat.load]): re-insert the load's
       control/memory dependency — the fine-grained machinery — so its
       result is never transient;
     - cut at the transmitter (capacity [lat.alu]): interpose an
       index-mask ALU op on the address path ("Software Mitigation of
       RISC-V Spectre Attacks"-style masking) that is itself pinned below
       the load's guards, so the protected load waits for resolution.

   Stores, commits, cflushes and chain targets are *structurally* safe in
   this IR — stores and barriers are pinned behind the previous exit-like
   node at build time, commit maps only apply once their exit resolves,
   and chain targets are constants — so they appear in the network only
   as zero-cost facts; the cut-soundness verifier pass
   ({!Gb_verify.Verifier.check_cut}) re-checks those placement facts and
   every residual path on the emitted schedule, Venkman-style. *)

module Dfg = Gb_ir.Dfg

type repair_kind = Dep_reinsert | Mask | Fence

type repair = {
  r_node : int;
  r_pc : int;
  r_kind : repair_kind;
  r_cost : int;
  r_realized : bool;
}

type plan = {
  sources : int;
  transmitters : int;
  max_flow : int;
  repairs : repair list;
  dep_reinserts : int;
  masks : int;
  fences : int;
  mask_nodes : int list;
}

let empty_plan =
  {
    sources = 0;
    transmitters = 0;
    max_flow = 0;
    repairs = [];
    dep_reinserts = 0;
    masks = 0;
    fences = 0;
    mask_nodes = [];
  }

(* ---- flow network ---------------------------------------------------- *)

(* Which repair cutting a finite-capacity edge corresponds to. Reverse
   (residual) edges and infinite propagation edges carry [Tplain]. *)
type tag = Tplain | Tconstrain of int | Tmask of int

type fedge = { dst : int; mutable cap : int; rev : int; tag : tag }

type network = {
  adj : fedge array array;  (** adjacency, frozen after construction *)
  n_vertices : int;
}

(* Vertex layout: 0 = S, 1 = T, then value/address vertex pair per DFG
   node. Splitting a speculative load into an address vertex (taint
   arriving AT its address operand) and a value vertex (taint LEAVING in
   its result) keeps "constrain the load" and "mask its address"
   distinct cut edges. *)
let s_vertex = 0

let t_vertex = 1

let val_vertex id = 2 + (2 * id)

let addr_vertex id = 3 + (2 * id)

let infinite = max_int / 4

let build_network ~(lat : Gb_ir.Latency.t) g =
  let n = Dfg.n_nodes g in
  let n_vertices = 2 + (2 * n) in
  (* each vertex's edges, newest first, and how many it has: an edge's
     index in its vertex's final array is that count at insertion *)
  let buckets = Array.make n_vertices [] in
  let counts = Array.make n_vertices 0 in
  (* paired with its reverse edge so the residual graph is implicit *)
  let add_edge u v cap tag =
    let iu = counts.(u) and iv = counts.(v) in
    buckets.(u) <- { dst = v; cap; rev = iv; tag } :: buckets.(u);
    counts.(u) <- iu + 1;
    buckets.(v) <- { dst = u; cap = 0; rev = iu; tag = Tplain } :: buckets.(v);
    counts.(v) <- counts.(v) + 1
  in
  let constrain_cost = Gb_ir.Build.latency_of lat in
  let sources = ref 0 and transmitters = ref 0 in
  Dfg.iter_nodes g (fun node ->
      let id = node.Dfg.id in
      let propagate_srcs () =
        Array.iter
          (fun v ->
            match v with
            | Dfg.Node u -> add_edge (val_vertex u) (val_vertex id) infinite Tplain
            | Dfg.Reg_in _ | Dfg.Imm _ -> ())
          node.Dfg.srcs
      in
      match node.Dfg.kind with
      | Dfg.Kalu _ -> propagate_srcs ()
      | Dfg.Kload _ ->
        (* value propagation is a FACT, not a cut candidate: in the
           poisoning model a loaded value inherits its inputs' poison
           whether or not the load is constrained or masked — repairs
           only remove the load's *own* speculation. Routing src poison
           around a cuttable edge here would let the cut "cleanse" a
           value mid-chain, which no repair primitive can do. *)
        propagate_srcs ();
        if Dfg.is_speculative node then begin
          incr sources;
          (* source: the load's transient result, cuttable by
             re-inserting its dependency *)
          add_edge s_vertex (val_vertex id)
            (constrain_cost node.Dfg.kind)
            (Tconstrain id);
          (* transmitter: poison arriving at the address of a load that
             can still issue transiently. The ingress is infinite (again
             a propagation fact); the cuttable edge is the load's own
             speculation — the mask repair pins it below its guards. *)
          match node.Dfg.srcs.(0) with
          | Dfg.Node u ->
            incr transmitters;
            add_edge (val_vertex u) (addr_vertex id) infinite Tplain;
            add_edge (addr_vertex id) t_vertex lat.Gb_ir.Latency.alu
              (Tmask id)
          | Dfg.Reg_in _ | Dfg.Imm _ -> ()
        end
      | Dfg.Kstore _ | Dfg.Kbranch _ | Dfg.Kchk _ | Dfg.Kexit
      | Dfg.Krdcycle | Dfg.Kcflush | Dfg.Kfence ->
        (* pinned / exit-like: structurally unable to transmit
           transiently (see header); no network edges *)
        ());
  let freeze edges = Array.of_list (List.rev edges) in
  ( { adj = Array.map freeze buckets; n_vertices }, !sources, !transmitters )

(* Edmonds-Karp: BFS for the shortest augmenting path until none
   remains. Networks here are tiny (two vertices per DFG node), so the
   O(V·E²) bound is irrelevant. *)
let max_flow net =
  (* BFS tree: [parent_v.(v)] is the vertex whose edge [parent_e.(v)]
     reached [v]; -1 while unvisited *)
  let parent_v = Array.make net.n_vertices (-1) in
  let parent_e = Array.make net.n_vertices (-1) in
  let queue = Array.make net.n_vertices 0 in
  let rec augment total =
    Array.fill parent_v 0 net.n_vertices (-1);
    parent_v.(s_vertex) <- s_vertex;
    queue.(0) <- s_vertex;
    let head = ref 0 and tail = ref 1 in
    let reached_t = ref false in
    while (not !reached_t) && !head < !tail do
      let u = queue.(!head) in
      incr head;
      let edges = net.adj.(u) in
      for i = 0 to Array.length edges - 1 do
        let e = edges.(i) in
        if e.cap > 0 && parent_v.(e.dst) = -1 then begin
          parent_v.(e.dst) <- u;
          parent_e.(e.dst) <- i;
          if e.dst = t_vertex then reached_t := true
          else begin
            queue.(!tail) <- e.dst;
            incr tail
          end
        end
      done
    done;
    if not !reached_t then total
    else begin
      (* bottleneck along the recorded path, then push *)
      let rec bottleneck v acc =
        if v = s_vertex then acc
        else
          let u = parent_v.(v) in
          bottleneck u (Int.min acc net.adj.(u).(parent_e.(v)).cap)
      in
      let f = bottleneck t_vertex infinite in
      let rec push v =
        if v <> s_vertex then begin
          let u = parent_v.(v) in
          let e = net.adj.(u).(parent_e.(v)) in
          e.cap <- e.cap - f;
          net.adj.(e.dst).(e.rev).cap <- net.adj.(e.dst).(e.rev).cap + f;
          push u
        end
      in
      push t_vertex;
      augment (total + f)
    end
  in
  augment 0

(* Residual reachability from S: the min cut is every tagged edge from a
   reachable vertex into an unreachable one (all such edges are
   saturated, and their capacities sum to the max flow). *)
let min_cut net =
  let reachable = Array.make net.n_vertices false in
  reachable.(s_vertex) <- true;
  let q = Queue.create () in
  Queue.add s_vertex q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iter
      (fun e ->
        if e.cap > 0 && not reachable.(e.dst) then begin
          reachable.(e.dst) <- true;
          Queue.add e.dst q
        end)
      net.adj.(u)
  done;
  let cut = ref [] in
  Array.iteri
    (fun u edges ->
      if reachable.(u) then
        Array.iter
          (fun e ->
            if (not reachable.(e.dst)) && e.tag <> Tplain then
              cut := e.tag :: !cut)
          edges)
    net.adj;
  !cut

(* ---- analysis -------------------------------------------------------- *)

let analyze ~lat g =
  let net, sources, transmitters = build_network ~lat g in
  let flow = max_flow net in
  let cut = min_cut net in
  (* constraining a load pins it entirely: it stops being a source AND a
     transmitter, so a Dep_reinsert subsumes a Mask of the same node *)
  let constrained =
    List.filter_map (function Tconstrain id -> Some id | _ -> None) cut
  in
  let repair_of tag =
    match tag with
    | Tconstrain id ->
      Some
        {
          r_node = id;
          r_pc = (Dfg.node g id).Dfg.guest_pc;
          r_kind = Dep_reinsert;
          r_cost = Gb_ir.Build.latency_of lat (Dfg.node g id).Dfg.kind;
          r_realized = false;
        }
    | Tmask id when not (List.exists (Int.equal id) constrained) ->
      Some
        {
          r_node = id;
          r_pc = (Dfg.node g id).Dfg.guest_pc;
          r_kind = Mask;
          r_cost = lat.Gb_ir.Latency.alu;
          r_realized = false;
        }
    | Tmask _ | Tplain -> None
  in
  let repairs =
    List.filter_map repair_of cut
    |> List.sort (fun a b -> Int.compare a.r_node b.r_node)
  in
  {
    empty_plan with
    sources;
    transmitters;
    max_flow = flow;
    repairs;
  }

(* ---- realization ----------------------------------------------------- *)

(* Interpose the index mask: an AND-with-all-ones ALU node on the address
   path (semantically the identity, so the differential oracle is
   unaffected) that is pinned below the load's guards; the load then
   depends on it, so the protected access can never issue transiently.
   The load's MCB tag is dropped (its chk becomes a dead check) and it is
   marked constrained so the poisoning analysis, the code generator's
   hoisted flag and the scheduler all see a de-speculated load.

   The mask node is appended after every original node, but all its data
   sources point at earlier ids, preserving the DFG's ordering invariant
   for the ascending-id poisoning pass. *)
let mask_load g ~(lat : Gb_ir.Latency.t) id =
  let node = Dfg.node g id in
  match Dfg.spec_of node with
  | None -> invalid_arg "Leakcut.mask_load: not a load"
  | Some spec ->
    let base = node.Dfg.srcs.(0) in
    let m =
      Dfg.add_node g
        ~kind:(Dfg.Kalu Gb_riscv.Insn.AND)
        ~srcs:[| base; Dfg.Imm (-1L) |]
        ~guest_pc:node.Dfg.guest_pc ()
    in
    (match base with
    | Dfg.Node u ->
      Dfg.add_edge g ~from:u ~to_:m
        ~lat:(Gb_ir.Build.latency_of lat (Dfg.node g u).Dfg.kind)
        ~kind:Dfg.Edata
    | Dfg.Reg_in _ | Dfg.Imm _ -> ());
    (match spec.Dfg.spec_prev_store with
    | Some store ->
      Dfg.add_edge g ~from:store ~to_:m ~lat:1 ~kind:Dfg.Emem
    | None -> ());
    (match spec.Dfg.spec_prev_branch with
    | Some branch ->
      Dfg.add_edge g ~from:branch ~to_:m ~lat:1 ~kind:Dfg.Ectrl
    | None -> ());
    Dfg.add_edge g ~from:m ~to_:id ~lat:lat.Gb_ir.Latency.alu ~kind:Dfg.Edata;
    spec.Dfg.tag <- None;
    spec.Dfg.constrained <- true;
    m

let apply ?(unsound = false) ~lat ~constrain ~fence g =
  let plan = analyze ~lat g in
  let dep = ref 0 and masks = ref 0 and fences = ref 0 in
  let mask_nodes = ref [] in
  let realize i r =
    if unsound && i = 0 then r  (* sensitivity control: leave one cut
                                    edge unrealized; check_cut must
                                    reject the resulting schedule *)
    else
      match r.r_kind with
      | Dep_reinsert ->
        constrain r.r_node;
        incr dep;
        { r with r_realized = true }
      | Mask ->
        let spec_anchored =
          match Dfg.spec_of (Dfg.node g r.r_node) with
          | Some s ->
            s.Dfg.spec_prev_store <> None || s.Dfg.spec_prev_branch <> None
          | None -> false
        in
        if spec_anchored then begin
          mask_nodes := mask_load g ~lat r.r_node :: !mask_nodes;
          incr masks;
          { r with r_realized = true }
        end
        else begin
          (* no guard to anchor the mask on: fall back to a full fence,
             the last-resort repair (unreachable for graphs the builder
             produces — speculative loads always record a guard) *)
          fence r.r_node;
          incr fences;
          { r with r_kind = Fence; r_realized = true }
        end
      | Fence ->
        fence r.r_node;
        incr fences;
        { r with r_realized = true }
  in
  let repairs = List.mapi realize plan.repairs in
  {
    plan with
    repairs;
    dep_reinserts = !dep;
    masks = !masks;
    fences = !fences;
    mask_nodes = List.rev !mask_nodes;
  }
