type resources = {
  width : int;
  mem_slots : int;
  mul_slots : int;
  branch_slots : int;
}

let default_resources = { width = 4; mem_slots = 1; mul_slots = 1; branch_slots = 1 }

type cls = Alu_class | Mem_class | Mul_class | Branch_class

let classify = function
  | Gb_ir.Dfg.Kalu op ->
    if Gb_ir.Build.is_mul_like op || Gb_ir.Build.is_div_like op then Mul_class
    else Alu_class
  | Gb_ir.Dfg.Kload _ | Gb_ir.Dfg.Kstore _ | Gb_ir.Dfg.Kcflush -> Mem_class
  | Gb_ir.Dfg.Kbranch _ | Gb_ir.Dfg.Kchk _ | Gb_ir.Dfg.Kexit -> Branch_class
  | Gb_ir.Dfg.Krdcycle | Gb_ir.Dfg.Kfence -> Alu_class

exception Cyclic

(* Every dependency edge, grouped by source in flat arrays: the successors
   of [u] are [dst.(k)] with latency [lat.(k)] for
   [start.(u) <= k < start.(u + 1)]. *)
type adjacency = {
  start : int array;
  dst : int array;
  lat : int array;
  n_preds : int array;
}

let adjacency g =
  let n = Gb_ir.Dfg.n_nodes g in
  let edges = Gb_ir.Dfg.edges g in
  let start = Array.make (n + 1) 0 in
  let n_preds = Array.make n 0 in
  List.iter
    (fun e ->
      let u = e.Gb_ir.Dfg.e_from and v = e.Gb_ir.Dfg.e_to in
      start.(u + 1) <- start.(u + 1) + 1;
      n_preds.(v) <- n_preds.(v) + 1)
    edges;
  for u = 1 to n do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let dst = Array.make start.(n) 0 in
  let lat = Array.make start.(n) 0 in
  (* fill each source's slice from its end, walking the edge list *)
  let fill = Array.sub start 1 n in
  List.iter
    (fun e ->
      let u = e.Gb_ir.Dfg.e_from in
      let k = fill.(u) - 1 in
      fill.(u) <- k;
      dst.(k) <- e.Gb_ir.Dfg.e_to;
      lat.(k) <- e.Gb_ir.Dfg.e_lat)
    edges;
  { start; dst; lat; n_preds }

(* Kahn's algorithm; the queue array ends up holding a topological
   order. *)
let topo_order n adj =
  let indeg = Array.copy adj.n_preds in
  let order = Array.make n 0 in
  let tail = ref 0 in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then begin
      order.(!tail) <- i;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    for k = adj.start.(u) to adj.start.(u + 1) - 1 do
      let v = adj.dst.(k) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then begin
        order.(!tail) <- v;
        incr tail
      end
    done
  done;
  if !tail <> n then raise Cyclic;
  order

(* A binary min-heap of ints; capacity fixed at creation. *)
type heap = { keys : int array; mutable size : int }

let heap_push h key =
  let keys = h.keys in
  let i = ref h.size in
  h.size <- h.size + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = keys.(parent) in
    if pk > key then begin
      keys.(!i) <- pk;
      i := parent
    end
    else rising := false
  done;
  keys.(!i) <- key

let heap_pop h =
  let keys = h.keys in
  let top = keys.(0) in
  let size = h.size - 1 in
  h.size <- size;
  if size > 0 then begin
    let last = keys.(size) in
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= size then sinking := false
      else begin
        let c = if l + 1 < size && keys.(l + 1) < keys.(l) then l + 1 else l in
        if keys.(c) < last then begin
          keys.(!i) <- keys.(c);
          i := c
        end
        else sinking := false
      end
    done;
    keys.(!i) <- last
  end;
  top

let schedule ?(obs = Gb_obs.Sink.noop) res ~lat g =
  let n = Gb_ir.Dfg.n_nodes g in
  let adj = adjacency g in
  let order = topo_order n adj in
  let cls =
    Array.init n (fun u -> classify (Gb_ir.Dfg.node g u).Gb_ir.Dfg.kind)
  in
  (* critical-path priority, computed in reverse topological order *)
  let prio = Array.make n 0 in
  for i = n - 1 downto 0 do
    let u = order.(i) in
    let best = ref 0 in
    for k = adj.start.(u) to adj.start.(u + 1) - 1 do
      best := Int.max !best (adj.lat.(k) + prio.(adj.dst.(k)))
    done;
    prio.(u) <-
      Gb_ir.Build.latency_of lat (Gb_ir.Dfg.node g u).Gb_ir.Dfg.kind + !best
  done;
  let cycle = Array.make n (-1) in
  let earliest = Array.make n 0 in
  let remaining_preds = Array.copy adj.n_preds in
  (* The ready pool pops by descending priority, then ascending id: the
     key [(top - prio) * n + id] orders exactly like the pair
     [(-prio, id)], and [key mod n] recovers the id. *)
  let top = Array.fold_left Int.max 0 prio in
  let pool = { keys = Array.make n 0; size = 0 } in
  (* Side exits are block terminators: the trace scheduler only places a
     branch-class node once no other operation is waiting to issue, so
     hoistable work (in particular speculative loads from beyond the exit)
     actually moves above it. This is what makes the optimizer's
     "move loads before the conditional branch" decision effective. *)
  let pending_nonbranch = ref 0 in
  let push u =
    if cls.(u) <> Branch_class then incr pending_nonbranch;
    heap_push pool (((top - prio.(u)) * n) + u)
  in
  for u = 0 to n - 1 do
    if remaining_preds.(u) = 0 then push u
  done;
  (* candidates that did not fit this bundle, re-pushed once it is full *)
  let skipped = Array.make n 0 in
  let scheduled = ref 0 in
  let c = ref 0 in
  while !scheduled < n do
    (* fill one bundle at cycle !c *)
    let used = ref 0 in
    let used_mem = ref 0 in
    let used_mul = ref 0 in
    let used_branch = ref 0 in
    let n_skipped = ref 0 in
    while !used < res.width && pool.size > 0 do
      let key = heap_pop pool in
      let u = key mod n in
      let k = cls.(u) in
      let fits =
        match k with
        | Mem_class -> !used_mem < res.mem_slots
        | Mul_class -> !used_mul < res.mul_slots
        | Branch_class ->
          !used_branch < res.branch_slots && !pending_nonbranch = 0
        | Alu_class -> true
      in
      if earliest.(u) <= !c && fits then begin
        incr used;
        (match k with
        | Mem_class -> incr used_mem
        | Mul_class -> incr used_mul
        | Branch_class -> incr used_branch
        | Alu_class -> ());
        if k <> Branch_class then decr pending_nonbranch;
        cycle.(u) <- !c;
        incr scheduled;
        for e = adj.start.(u) to adj.start.(u + 1) - 1 do
          let v = adj.dst.(e) in
          earliest.(v) <- Int.max earliest.(v) (!c + adj.lat.(e));
          remaining_preds.(v) <- remaining_preds.(v) - 1;
          if remaining_preds.(v) = 0 then push v
        done
      end
      else begin
        skipped.(!n_skipped) <- key;
        incr n_skipped
      end
    done;
    for i = 0 to !n_skipped - 1 do
      heap_push pool skipped.(i)
    done;
    incr c
  done;
  if Gb_obs.Sink.is_active obs then begin
    Gb_obs.Sink.observe obs "sched.nodes" (float_of_int n);
    Gb_obs.Sink.observe obs "sched.schedule_cycles" (float_of_int !c)
  end;
  cycle
