exception Out_of_registers

let produces_value = function
  | Gb_ir.Dfg.Kalu _ | Gb_ir.Dfg.Kload _ | Gb_ir.Dfg.Krdcycle -> true
  | Gb_ir.Dfg.Kstore _ | Gb_ir.Dfg.Kbranch _ | Gb_ir.Dfg.Kchk _
  | Gb_ir.Dfg.Kexit | Gb_ir.Dfg.Kcflush | Gb_ir.Dfg.Kfence ->
    false

(* Last cycle at which each node's value is read: by consumers' sources or
   by exit stubs (commit maps are read when the exit is taken). *)
let last_uses g cycles =
  let n = Gb_ir.Dfg.n_nodes g in
  let last = Array.make n (-1) in
  let use v at =
    match v with
    | Gb_ir.Dfg.Node src -> if at > last.(src) then last.(src) <- at
    | Gb_ir.Dfg.Reg_in _ | Gb_ir.Dfg.Imm _ -> ()
  in
  for id = 0 to n - 1 do
    let node = Gb_ir.Dfg.node g id in
    let at = cycles.(id) in
    let srcs = node.Gb_ir.Dfg.srcs in
    for k = 0 to Array.length srcs - 1 do
      use srcs.(k) at
    done;
    List.iter (fun (_, v) -> use v at) node.Gb_ir.Dfg.commit_map
  done;
  last

(* Node ids ordered by issue cycle, ties by id: a counting sort over
   cycles, stable because ids are placed in increasing order. *)
let by_cycle cycles =
  let n = Array.length cycles in
  let n_cycles = 1 + Array.fold_left Int.max 0 cycles in
  let start = Array.make (n_cycles + 1) 0 in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) cycles;
  for c = 1 to n_cycles do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let order = Array.make n 0 in
  for id = 0 to n - 1 do
    let c = cycles.(id) in
    order.(start.(c)) <- id;
    start.(c) <- start.(c) + 1
  done;
  order

(* Linear-scan allocation of hidden registers over issue cycles. A hidden
   register freed at cycle [u] can be redefined at any cycle >= u: the old
   value is read at the start of the cycle, the new write lands at its
   end.

   The free list is the pair of arrays [free_t] (register) and [free_at]
   (first cycle it may be redefined), in list order. At each definition
   the entries free by then keep their order and move to the front, the
   still-busy ones follow in their order; the first free entry is
   reused (a fresh register when there is none), and the new value's
   entry goes to the very front. This order decides every register
   number, so it is part of the emitted code's contract. *)
let allocate_temps g cycles ~n_hidden =
  let n = Gb_ir.Dfg.n_nodes g in
  let last = last_uses g cycles in
  let temp = Array.make n (-1) in
  let order = by_cycle cycles in
  let free_t = Array.make n 0 and free_at = Array.make n 0 in
  let reuse_t = Array.make n 0 and reuse_at = Array.make n 0 in
  let len = ref 0 in
  let next_fresh = ref 0 in
  let max_used = ref 0 in
  for i = 0 to n - 1 do
    let id = order.(i) in
    if produces_value (Gb_ir.Dfg.node g id).Gb_ir.Dfg.kind then begin
      let def_cycle = cycles.(id) in
      (* stable partition: free entries to [reuse_*], busy ones compacted
         at the front of [free_*] *)
      let n_free = ref 0 and n_busy = ref 0 in
      for k = 0 to !len - 1 do
        if free_at.(k) <= def_cycle then begin
          reuse_t.(!n_free) <- free_t.(k);
          reuse_at.(!n_free) <- free_at.(k);
          incr n_free
        end
        else begin
          free_t.(!n_busy) <- free_t.(k);
          free_at.(!n_busy) <- free_at.(k);
          incr n_busy
        end
      done;
      let t =
        if !n_free > 0 then reuse_t.(0)
        else begin
          let t = !next_fresh in
          incr next_fresh;
          if t >= n_hidden then raise Out_of_registers;
          t
        end
      in
      (* new list: the new entry, the other free entries, the busy ones *)
      let shift = Int.max !n_free 1 in
      for k = !n_busy - 1 downto 0 do
        free_t.(k + shift) <- free_t.(k);
        free_at.(k + shift) <- free_at.(k)
      done;
      for k = 1 to !n_free - 1 do
        free_t.(k) <- reuse_t.(k);
        free_at.(k) <- reuse_at.(k)
      done;
      temp.(id) <- t;
      max_used := Int.max !max_used (t + 1);
      free_t.(0) <- t;
      free_at.(0) <- Int.max last.(id) def_cycle + 1;
      len := shift + !n_busy
    end
  done;
  (temp, !max_used)

let emit res ~n_hidden ~cycles ~entry_pc ~guest_insns ~meta g =
  let open Gb_vliw.Vinsn in
  let temp, temps_used = allocate_temps g cycles ~n_hidden in
  let reg_of id = guest_regs + temp.(id) in
  let operand_of = function
    | Gb_ir.Dfg.Node id -> R (reg_of id)
    | Gb_ir.Dfg.Reg_in r -> R r
    | Gb_ir.Dfg.Imm v -> I v
  in
  (* exit stubs, indexed in node order *)
  let stub_index = Array.make (Gb_ir.Dfg.n_nodes g) (-1) in
  let stubs = ref [] in
  let n_stubs = ref 0 in
  Gb_ir.Dfg.iter_nodes g (fun node ->
      if Gb_ir.Dfg.is_exit_like node.Gb_ir.Dfg.kind then begin
        let commits =
          List.filter_map
            (fun (r, v) ->
              match v with
              | Gb_ir.Dfg.Reg_in r' when r' = r -> None
              | v -> Some (r, operand_of v))
            node.Gb_ir.Dfg.commit_map
        in
        stub_index.(node.Gb_ir.Dfg.id) <- !n_stubs;
        stubs :=
          make_stub ~exit_id:node.Gb_ir.Dfg.id ~commits
            ~target_pc:node.Gb_ir.Dfg.exit_pc ()
          :: !stubs;
        incr n_stubs
      end);
  let stubs = Array.of_list (List.rev !stubs) in
  let op_of node =
    let id = node.Gb_ir.Dfg.id in
    let src k = operand_of node.Gb_ir.Dfg.srcs.(k) in
    match node.Gb_ir.Dfg.kind with
    | Gb_ir.Dfg.Kalu op -> Alu { op; dst = reg_of id; a = src 0; b = src 1 }
    | Gb_ir.Dfg.Kload (w, unsigned, spec) ->
      Load
        {
          w;
          unsigned;
          dst = reg_of id;
          base = src 0;
          off = node.Gb_ir.Dfg.off;
          spec = spec.Gb_ir.Dfg.tag;
          id;
          pc = node.Gb_ir.Dfg.guest_pc;
          (* a constrained load is pinned below its guards: it executes
             architecturally, so it must not seed runtime/verifier taint
             (same definition as the engine's branch_spec_loads meta) *)
          hoisted =
            spec.Gb_ir.Dfg.spec_prev_branch <> None
            && not spec.Gb_ir.Dfg.constrained;
        }
    | Gb_ir.Dfg.Kstore w ->
      Store
        {
          w;
          src = src 0;
          base = src 1;
          off = node.Gb_ir.Dfg.off;
          id;
          pc = node.Gb_ir.Dfg.guest_pc;
        }
    | Gb_ir.Dfg.Kbranch cond ->
      Branch { cond; a = src 0; b = src 1; stub = stub_index.(id) }
    | Gb_ir.Dfg.Kchk load_id -> (
      let load = Gb_ir.Dfg.node g load_id in
      match Gb_ir.Dfg.spec_of load with
      | Some { Gb_ir.Dfg.tag = Some tag; _ } ->
        Chk { tag; stub = stub_index.(id) }
      | Some _ | None ->
        (* the guarded load was de-speculated by the mitigation: the
           check can never fire *)
        Nop)
    | Gb_ir.Dfg.Kexit -> Exit { stub = stub_index.(id) }
    | Gb_ir.Dfg.Krdcycle -> Rdcycle { dst = reg_of id }
    | Gb_ir.Dfg.Kcflush ->
      Cflush
        { base = src 0; off = node.Gb_ir.Dfg.off; id; pc = node.Gb_ir.Dfg.guest_pc }
    | Gb_ir.Dfg.Kfence -> Fence
  in
  let n_cycles = 1 + Array.fold_left Int.max 0 cycles in
  let slots_used = Array.make n_cycles 0 in
  let bundles = Array.init n_cycles (fun _ -> Array.make res.Sched.width Nop) in
  Gb_ir.Dfg.iter_nodes g (fun node ->
      let c = cycles.(node.Gb_ir.Dfg.id) in
      let slot = slots_used.(c) in
      if slot >= res.Sched.width then
        invalid_arg "Codegen.emit: over-full bundle (scheduler bug)";
      bundles.(c).(slot) <- op_of node;
      slots_used.(c) <- slot + 1);
  {
    entry_pc;
    bundles;
    stubs;
    n_regs = guest_regs + temps_used;
    guest_insns;
    meta;
    decoded = Undecoded;
  }
