exception Unsupported of string

let is_mul_like = function
  | Gb_riscv.Insn.MUL | Gb_riscv.Insn.MULH | Gb_riscv.Insn.MULHSU
  | Gb_riscv.Insn.MULHU | Gb_riscv.Insn.MULW ->
    true
  | _ -> false

let is_div_like = function
  | Gb_riscv.Insn.DIV | Gb_riscv.Insn.DIVU | Gb_riscv.Insn.REM
  | Gb_riscv.Insn.REMU | Gb_riscv.Insn.DIVW | Gb_riscv.Insn.DIVUW
  | Gb_riscv.Insn.REMW | Gb_riscv.Insn.REMUW ->
    true
  | _ -> false

let latency_of (lat : Latency.t) = function
  | Dfg.Kalu op ->
    if is_div_like op then lat.Latency.div
    else if is_mul_like op then lat.Latency.mul
    else lat.Latency.alu
  | Dfg.Kload _ -> lat.Latency.load
  | Dfg.Krdcycle -> lat.Latency.rdcycle
  | Dfg.Kstore _ | Dfg.Kbranch _ | Dfg.Kchk _ | Dfg.Kexit | Dfg.Kcflush
  | Dfg.Kfence ->
    1

(* Map an immediate-form opcode to its register-register semantics; the
   immediate becomes an [Imm] operand. *)
let oprr_of_opri = function
  | Gb_riscv.Insn.ADDI -> Gb_riscv.Insn.ADD
  | Gb_riscv.Insn.SLTI -> Gb_riscv.Insn.SLT
  | Gb_riscv.Insn.SLTIU -> Gb_riscv.Insn.SLTU
  | Gb_riscv.Insn.XORI -> Gb_riscv.Insn.XOR
  | Gb_riscv.Insn.ORI -> Gb_riscv.Insn.OR
  | Gb_riscv.Insn.ANDI -> Gb_riscv.Insn.AND
  | Gb_riscv.Insn.SLLI -> Gb_riscv.Insn.SLL
  | Gb_riscv.Insn.SRLI -> Gb_riscv.Insn.SRL
  | Gb_riscv.Insn.SRAI -> Gb_riscv.Insn.SRA
  | Gb_riscv.Insn.ADDIW -> Gb_riscv.Insn.ADDW
  | Gb_riscv.Insn.SLLIW -> Gb_riscv.Insn.SLLW
  | Gb_riscv.Insn.SRLIW -> Gb_riscv.Insn.SRLW
  | Gb_riscv.Insn.SRAIW -> Gb_riscv.Insn.SRAW

let sext32 v = Int64.of_int32 (Int64.to_int32 v)

(* Value-numbering key: an operation and its two operands. Equality and
   hashing are monomorphic; the opcode takes part in equality only. *)
module Cse = Hashtbl.Make (struct
  type t = Gb_riscv.Insn.oprr * Dfg.value * Dfg.value

  let value_equal a b =
    match (a, b) with
    | Dfg.Reg_in x, Dfg.Reg_in y | Dfg.Node x, Dfg.Node y -> Int.equal x y
    | Dfg.Imm x, Dfg.Imm y -> Int64.equal x y
    | (Dfg.Reg_in _ | Dfg.Node _ | Dfg.Imm _), _ -> false

  let equal ((op : Gb_riscv.Insn.oprr), a, b) (op', a', b') =
    op = op' && value_equal a a' && value_equal b b'

  let value_hash = function
    | Dfg.Reg_in r -> r lsl 2
    | Dfg.Node id -> (id lsl 2) lor 1
    | Dfg.Imm v -> (Int64.to_int v lsl 2) lor 2

  let hash (_, a, b) = (value_hash a * 65599) + value_hash b
end)

type state = {
  g : Dfg.t;
  lat : Latency.t;
  opt : Opt_config.t;
  regmap : Dfg.value array;
  mutable prev_branchlike : int option;
  mutable since_branch : int list;  (** non-exit nodes since last exit-like *)
  mutable prev_mem : (int * bool) option;  (** (node, store-speculable?) *)
  mutable loads_since_mem : int list;
  mutable tags_used : int;
  cse_table : int Cse.t;
      (** value numbering of pure operations (never invalidated: values
          are SSA and live-in registers are constant within a trace) *)
}

let data_edges st id srcs =
  Array.iter
    (fun v ->
      match v with
      | Dfg.Node src ->
        let lat = latency_of st.lat (Dfg.node st.g src).Dfg.kind in
        Dfg.add_edge st.g ~from:src ~to_:id ~lat ~kind:Dfg.Edata
      | Dfg.Reg_in _ | Dfg.Imm _ -> ())
    srcs

let snapshot st =
  let acc = ref [] in
  for r = 31 downto 1 do
    match st.regmap.(r) with
    | Dfg.Reg_in r' when r' = r -> ()
    | v -> acc := (r, v) :: !acc
  done;
  !acc

(* A node that stays inside the trace. [pinned] adds a control edge from
   the previous exit-like node (no hoisting above it). *)
let add_plain st ~kind ~srcs ?(off = 0) ?(dest = None) ~pinned ~guest_pc () =
  let id = Dfg.add_node st.g ~kind ~srcs ~off ~dest ~guest_pc () in
  data_edges st id srcs;
  (match (pinned, st.prev_branchlike) with
  | true, Some b -> Dfg.add_edge st.g ~from:b ~to_:id ~lat:1 ~kind:Dfg.Ectrl
  | true, None | false, _ -> ());
  st.since_branch <- id :: st.since_branch;
  id

(* An exit-like node: everything already emitted must execute before it
   (its commit map must be valid when the exit is taken), and it joins the
   exit chain. *)
let add_branchlike st ~kind ~srcs ~commit_map ~exit_pc ~guest_pc () =
  let id =
    Dfg.add_node st.g ~kind ~srcs ~commit_map ~exit_pc ~guest_pc ()
  in
  data_edges st id srcs;
  (match st.prev_branchlike with
  | Some b -> Dfg.add_edge st.g ~from:b ~to_:id ~lat:1 ~kind:Dfg.Ectrl
  | None -> ());
  List.iter
    (fun n -> Dfg.add_edge st.g ~from:n ~to_:id ~lat:1 ~kind:Dfg.Ectrl)
    st.since_branch;
  st.prev_branchlike <- Some id;
  st.since_branch <- [];
  id

(* A pinned node that also acts as a non-speculable memory barrier
   (rdcycle, cflush, fence). *)
let add_barrier st ~kind ~srcs ?(off = 0) ?(dest = None) ~guest_pc () =
  let id = add_plain st ~kind ~srcs ~off ~dest ~pinned:true ~guest_pc () in
  (match st.prev_mem with
  | Some (m, _) -> Dfg.add_edge st.g ~from:m ~to_:id ~lat:1 ~kind:Dfg.Emem
  | None -> ());
  (* latency 1, not 0: a barrier (rdcycle in particular) must land in a
     strictly later bundle than a preceding load so that it observes the
     load's stall cycles *)
  List.iter
    (fun l -> Dfg.add_edge st.g ~from:l ~to_:id ~lat:1 ~kind:Dfg.Emem)
    st.loads_since_mem;
  st.prev_mem <- Some (id, false);
  st.loads_since_mem <- [];
  id

let set_dest st rd id = if rd <> 0 then st.regmap.(rd) <- Dfg.Node id

(* Pure ALU operation. With [cse] on, two cleanups every DBT optimizer
   performs: constant folding (both operands immediate — frequent after
   lui/addi address materialisation) and local value numbering (the same
   computation on the same operands reuses the earlier node, e.g. array
   base addresses or index arithmetic shared between accesses). Both are
   sound regardless of branches: the values are pure. *)
let add_alu st ~op ~rd ~a ~b ~guest_pc =
  let fresh () =
    let pinned =
      (not st.opt.Opt_config.alu_spec) && st.prev_branchlike <> None
    in
    let dest = if rd = 0 then None else Some rd in
    let id =
      add_plain st ~kind:(Dfg.Kalu op) ~srcs:[| a; b |] ~dest ~pinned
        ~guest_pc ()
    in
    if st.opt.Opt_config.cse then Cse.replace st.cse_table (op, a, b) id;
    Dfg.Node id
  in
  let value =
    if not st.opt.Opt_config.cse then fresh ()
    else
      match (a, b) with
      | Dfg.Imm va, Dfg.Imm vb -> Dfg.Imm (Gb_riscv.Interp.alu_rr op va vb)
      | (Dfg.Imm _ | Dfg.Reg_in _ | Dfg.Node _), _ -> (
        match Cse.find_opt st.cse_table (op, a, b) with
        | Some id -> Dfg.Node id
        | None -> fresh ())
  in
  if rd <> 0 then st.regmap.(rd) <- value;
  value

let reg_value st r = if r = 0 then Dfg.Imm 0L else st.regmap.(r)

let add_load st ~w ~unsigned ~rd ~base ~off ~guest_pc =
  let pinned =
    (not st.opt.Opt_config.branch_spec) && st.prev_branchlike <> None
  in
  let spec_prev_branch =
    if st.opt.Opt_config.branch_spec then st.prev_branchlike else None
  in
  let speculate_store =
    match st.prev_mem with
    | Some (_, true) ->
      st.opt.Opt_config.mem_spec && st.tags_used < st.opt.Opt_config.mcb_tags
    | Some (_, false) | None -> false
  in
  let spec =
    {
      Dfg.tag = (if speculate_store then Some st.tags_used else None);
      spec_prev_store =
        (if speculate_store then Option.map fst st.prev_mem else None);
      spec_prev_branch;
      constrained = false;
    }
  in
  if speculate_store then st.tags_used <- st.tags_used + 1;
  (* only an MCB-speculative load needs the pre-load state, for its chk *)
  let pre_load_snapshot = if speculate_store then snapshot st else [] in
  let dest = if rd = 0 then None else Some rd in
  let id =
    add_plain st
      ~kind:(Dfg.Kload (w, unsigned, spec))
      ~srcs:[| base |] ~off ~dest ~pinned ~guest_pc ()
  in
  (* kept RAW dependency on the previous memory-chain node *)
  (match (speculate_store, st.prev_mem) with
  | false, Some (m, _) ->
    Dfg.add_edge st.g ~from:m ~to_:id ~lat:1 ~kind:Dfg.Emem
  | true, _ | false, None -> ());
  st.loads_since_mem <- id :: st.loads_since_mem;
  set_dest st rd id;
  if speculate_store then begin
    (* the MCB check sits at the load's original position; rolling back
       re-enters the interpreter at the load's pc with pre-load state *)
    let chk =
      add_branchlike st ~kind:(Dfg.Kchk id) ~srcs:[||]
        ~commit_map:pre_load_snapshot ~exit_pc:guest_pc ~guest_pc ()
    in
    match st.prev_mem with
    | Some (m, _) -> Dfg.add_edge st.g ~from:m ~to_:chk ~lat:1 ~kind:Dfg.Emem
    | None -> assert false
  end;
  id

let add_store st ~w ~src ~base ~off ~guest_pc =
  let id =
    add_plain st ~kind:(Dfg.Kstore w) ~srcs:[| src; base |] ~off ~pinned:true
      ~guest_pc ()
  in
  (match st.prev_mem with
  | Some (m, _) -> Dfg.add_edge st.g ~from:m ~to_:id ~lat:1 ~kind:Dfg.Emem
  | None -> ());
  List.iter
    (fun l -> Dfg.add_edge st.g ~from:l ~to_:id ~lat:0 ~kind:Dfg.Emem)
    st.loads_since_mem;
  st.prev_mem <- Some (id, true);
  st.loads_since_mem <- [];
  id

let lower_step st (step : Gtrace.step) =
  let pc = step.Gtrace.pc in
  match (step.Gtrace.insn, step.Gtrace.exit_cond) with
  | Gb_riscv.Insn.Op_imm (op, rd, rs1, imm), None ->
    ignore
      (add_alu st ~op:(oprr_of_opri op) ~rd ~a:(reg_value st rs1)
         ~b:(Dfg.Imm (Int64.of_int imm)) ~guest_pc:pc)
  | Gb_riscv.Insn.Op (op, rd, rs1, rs2), None ->
    ignore
      (add_alu st ~op ~rd ~a:(reg_value st rs1) ~b:(reg_value st rs2)
         ~guest_pc:pc)
  | Gb_riscv.Insn.Lui (rd, imm), None ->
    ignore
      (add_alu st ~op:Gb_riscv.Insn.ADD ~rd
         ~a:(Dfg.Imm (sext32 (Int64.of_int (imm lsl 12))))
         ~b:(Dfg.Imm 0L) ~guest_pc:pc)
  | Gb_riscv.Insn.Auipc (rd, imm), None ->
    let v = Int64.add (Int64.of_int pc) (sext32 (Int64.of_int (imm lsl 12))) in
    ignore
      (add_alu st ~op:Gb_riscv.Insn.ADD ~rd ~a:(Dfg.Imm v) ~b:(Dfg.Imm 0L)
         ~guest_pc:pc)
  | Gb_riscv.Insn.Load (w, unsigned, rd, rs1, off), None ->
    ignore
      (add_load st ~w ~unsigned ~rd ~base:(reg_value st rs1) ~off ~guest_pc:pc)
  | Gb_riscv.Insn.Store (w, rs2, rs1, off), None ->
    ignore
      (add_store st ~w ~src:(reg_value st rs2) ~base:(reg_value st rs1) ~off
         ~guest_pc:pc)
  | Gb_riscv.Insn.Branch _, Some (cond, target) ->
    (match step.Gtrace.insn with
    | Gb_riscv.Insn.Branch (_, rs1, rs2, _) ->
      ignore
        (add_branchlike st ~kind:(Dfg.Kbranch cond)
           ~srcs:[| reg_value st rs1; reg_value st rs2 |]
           ~commit_map:(snapshot st) ~exit_pc:target ~guest_pc:pc ())
    | _ -> assert false)
  | Gb_riscv.Insn.Branch _, None ->
    raise (Unsupported "branch without exit condition")
  | Gb_riscv.Insn.Jal (rd, _), None ->
    (* the control transfer is already linearised; only the link remains *)
    if rd <> 0 then
      ignore
        (add_alu st ~op:Gb_riscv.Insn.ADD ~rd
           ~a:(Dfg.Imm (Int64.of_int (pc + 4)))
           ~b:(Dfg.Imm 0L) ~guest_pc:pc)
  | Gb_riscv.Insn.Rdcycle rd, None ->
    let dest = if rd = 0 then None else Some rd in
    let id = add_barrier st ~kind:Dfg.Krdcycle ~srcs:[||] ~dest ~guest_pc:pc () in
    set_dest st rd id
  | Gb_riscv.Insn.Cflush rs1, None ->
    ignore
      (add_barrier st ~kind:Dfg.Kcflush ~srcs:[| reg_value st rs1 |]
         ~guest_pc:pc ())
  | Gb_riscv.Insn.Fence, None ->
    ignore (add_barrier st ~kind:Dfg.Kfence ~srcs:[||] ~guest_pc:pc ())
  | Gb_riscv.Insn.Ecall, _ -> raise (Unsupported "ecall inside a trace")
  | Gb_riscv.Insn.Jalr _, _ -> raise (Unsupported "jalr inside a trace")
  | ( ( Gb_riscv.Insn.Op_imm _ | Gb_riscv.Insn.Op _ | Gb_riscv.Insn.Lui _
      | Gb_riscv.Insn.Auipc _ | Gb_riscv.Insn.Load _ | Gb_riscv.Insn.Store _
      | Gb_riscv.Insn.Jal _ | Gb_riscv.Insn.Rdcycle _ | Gb_riscv.Insn.Cflush _
      | Gb_riscv.Insn.Fence ),
      Some _ ) ->
    raise (Unsupported "exit condition on a non-branch")

let build ~opt ~lat (trace : Gtrace.t) =
  let st =
    {
      g = Dfg.create ();
      lat;
      opt;
      regmap = Array.init 32 (fun r -> Dfg.Reg_in r);
      prev_branchlike = None;
      since_branch = [];
      prev_mem = None;
      loads_since_mem = [];
      tags_used = 0;
      cse_table = Cse.create 64;
    }
  in
  List.iter (lower_step st) trace.Gtrace.steps;
  ignore
    (add_branchlike st ~kind:Dfg.Kexit ~srcs:[||] ~commit_map:(snapshot st)
       ~exit_pc:trace.Gtrace.fall_pc ~guest_pc:trace.Gtrace.fall_pc ());
  st.g
