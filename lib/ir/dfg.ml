type value = Reg_in of int | Node of int | Imm of int64

type spec_info = {
  mutable tag : int option;
  mutable spec_prev_store : int option;
  mutable spec_prev_branch : int option;
  mutable constrained : bool;
}

type kind =
  | Kalu of Gb_riscv.Insn.oprr
  | Kload of Gb_riscv.Insn.width * bool * spec_info
  | Kstore of Gb_riscv.Insn.width
  | Kbranch of Gb_riscv.Insn.branch_cond
  | Kchk of int
  | Kexit
  | Krdcycle
  | Kcflush
  | Kfence

type node = {
  id : int;
  kind : kind;
  srcs : value array;
  off : int;
  guest_pc : int;
  dest : int option;
  commit_map : (int * value) list;
  exit_pc : int;
}

type edge_kind = Edata | Emem | Ectrl

type edge = { e_from : int; e_to : int; e_lat : int; e_kind : edge_kind }

type t = {
  mutable node_store : node array;
  mutable count : int;
  mutable edge_list : edge list;
}

let create () = { node_store = [||]; count = 0; edge_list = [] }

let grow t =
  let cap = Array.length t.node_store in
  if t.count >= cap then begin
    let placeholder =
      {
        id = -1;
        kind = Kfence;
        srcs = [||];
        off = 0;
        guest_pc = 0;
        dest = None;
        commit_map = [];
        exit_pc = 0;
      }
    in
    let next = Array.make (Int.max 16 (cap * 2)) placeholder in
    Array.blit t.node_store 0 next 0 cap;
    t.node_store <- next
  end

let add_node t ~kind ~srcs ?(off = 0) ?(dest = None) ?(commit_map = [])
    ?(exit_pc = 0) ~guest_pc () =
  grow t;
  let id = t.count in
  t.node_store.(id) <-
    { id; kind; srcs; off; guest_pc; dest; commit_map; exit_pc };
  t.count <- t.count + 1;
  id

let add_edge t ~from ~to_ ~lat ~kind =
  assert (from <> to_);
  t.edge_list <- { e_from = from; e_to = to_; e_lat = lat; e_kind = kind } :: t.edge_list

let node t id = t.node_store.(id)

let n_nodes t = t.count

let nodes t = Array.sub t.node_store 0 t.count

let edges t = t.edge_list

let iter_nodes t f =
  for i = 0 to t.count - 1 do
    f t.node_store.(i)
  done

let is_exit_like = function
  | Kbranch _ | Kchk _ | Kexit -> true
  | Kalu _ | Kload _ | Kstore _ | Krdcycle | Kcflush | Kfence -> false

let is_load = function
  | Kload _ -> true
  | Kalu _ | Kstore _ | Kbranch _ | Kchk _ | Kexit | Krdcycle | Kcflush
  | Kfence ->
    false

let spec_of n = match n.kind with Kload (_, _, s) -> Some s | _ -> None

let is_speculative n =
  match spec_of n with
  | Some s ->
    (not s.constrained)
    && (s.spec_prev_store <> None || s.spec_prev_branch <> None)
  | None -> false

let kind_name = function
  | Kalu op -> (
    match op with
    | Gb_riscv.Insn.ADD -> "add"
    | Gb_riscv.Insn.MUL -> "mul"
    | _ -> "alu")
  | Kload _ -> "load"
  | Kstore _ -> "store"
  | Kbranch _ -> "branch"
  | Kchk _ -> "chk"
  | Kexit -> "exit"
  | Krdcycle -> "rdcycle"
  | Kcflush -> "cflush"
  | Kfence -> "fence"

let pp_value ppf = function
  | Reg_in r -> Format.fprintf ppf "%s" (Gb_riscv.Reg.name r)
  | Node id -> Format.fprintf ppf "n%d" id
  | Imm v -> Format.fprintf ppf "%Ld" v

let pp ppf t =
  iter_nodes t (fun n ->
      Format.fprintf ppf "n%d: %s" n.id (kind_name n.kind);
      Array.iter (fun v -> Format.fprintf ppf " %a" pp_value v) n.srcs;
      if n.off <> 0 then Format.fprintf ppf " +%d" n.off;
      (match n.dest with
      | Some r -> Format.fprintf ppf " -> %s" (Gb_riscv.Reg.name r)
      | None -> ());
      if is_speculative n then Format.fprintf ppf " [spec]";
      Format.fprintf ppf "@.");
  List.iter
    (fun e ->
      Format.fprintf ppf "  n%d -> n%d (lat %d, %s)@." e.e_from e.e_to e.e_lat
        (match e.e_kind with
        | Edata -> "data"
        | Emem -> "mem"
        | Ectrl -> "ctrl"))
    (List.rev t.edge_list)
