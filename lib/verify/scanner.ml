open Gb_riscv

type gadget_kind = V1 | V4

type gadget = {
  g_kind : gadget_kind;
  g_root_pc : int;
  g_load_pc : int;
  g_dep_pc : int;
  g_chain : int list;
}

type report = {
  gadgets : gadget list;
  insns : int;
  branches : int;
  stores : int;
  window : int;
}

module IS = Set.Make (Int)
module RM = Map.Make (Int)

let default_window = 64

(* Total abstract steps spent per gadget root, across all forked paths:
   bounds the exponential blowup of exploring both sides of every nested
   branch while still letting loops be followed around their back edge
   (a trace can span several unrolled iterations, so a dependent access
   may sit in a later iteration than its tainting load). *)
let budget_of window = window * 64

let word_at (prog : Asm.program) pc =
  let off = pc - prog.Asm.base in
  if off < 0 || off + 4 > Bytes.length prog.Asm.image then None
  else
    let b i = Char.code (Bytes.get prog.Asm.image (off + i)) in
    Some (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))

(* Reachable code only: decoding the data section would invent gadgets
   out of array bytes. Follows fall-through, both branch directions and
   direct jumps; indirect jumps and the exit ecall end discovery. *)
let discover prog =
  let code = Hashtbl.create 256 in
  let rec go pc =
    if not (Hashtbl.mem code pc) then
      match word_at prog pc with
      | None -> ()
      | Some w -> (
        match Decode.decode w with
        | exception Decode.Illegal _ -> ()
        | insn ->
          Hashtbl.add code pc insn;
          (match insn with
          | Insn.Branch (_, _, _, off) ->
            go (pc + 4);
            go (pc + off)
          | Insn.Jal (_, off) -> go (pc + off)
          | Insn.Jalr _ | Insn.Ecall -> ()
          | _ -> go (pc + 4)))
  in
  go prog.Asm.entry;
  code

let taint_of tm r = if r = 0 then IS.empty else
    match RM.find_opt r tm with Some s -> s | None -> IS.empty

let set_taint tm r s =
  if r = 0 then tm else if IS.is_empty s then RM.remove r tm else RM.add r s tm

(* One speculative walk. [seed] decides whether a load plants fresh taint
   (v1: every load executed under the mispredicted branch; v4: only loads
   that may alias the bypassed store). [on_dep] receives every memory op
   whose address register is tainted. [watch], when set, names a register
   whose per-path liveness the seed may consult ([live] = not redefined
   since the walk began) — the v4 alias proof needs the bypassed store's
   base register to still hold the store's address. *)
let walk code ~start ~window ?watch ~seed ~on_dep () =
  let budget = ref (budget_of window) in
  let kills insn =
    match (watch, Insn.dest insn) with
    | Some r, Some d -> r = d
    | _ -> false
  in
  let rec go pc depth live tm =
    if depth < window && !budget > 0 then begin
      decr budget;
      match Hashtbl.find_opt code pc with
      | None -> ()
      | Some insn ->
        let live = live && not (kills insn) in
        (match insn with
        | Insn.Op_imm (_, rd, rs1, _) ->
          go (pc + 4) (depth + 1) live (set_taint tm rd (taint_of tm rs1))
        | Insn.Op (_, rd, rs1, rs2) ->
          go (pc + 4) (depth + 1) live
            (set_taint tm rd (IS.union (taint_of tm rs1) (taint_of tm rs2)))
        | Insn.Lui (rd, _) | Insn.Auipc (rd, _) | Insn.Rdcycle rd ->
          go (pc + 4) (depth + 1) live (set_taint tm rd IS.empty)
        | Insn.Load (w, _, rd, base, off) ->
          let base_t = taint_of tm base in
          if not (IS.is_empty base_t) then on_dep ~pc ~origins:base_t;
          let fresh =
            if seed ~pc ~base ~off ~w ~live then IS.singleton pc else IS.empty
          in
          (* data read at a tainted address is itself tainted *)
          go (pc + 4) (depth + 1) live (set_taint tm rd (IS.union fresh base_t))
        | Insn.Store (_, _, base, _) ->
          let base_t = taint_of tm base in
          if not (IS.is_empty base_t) then on_dep ~pc ~origins:base_t;
          go (pc + 4) (depth + 1) live tm
        | Insn.Branch (_, _, _, off) ->
          go (pc + 4) (depth + 1) live tm;
          go (pc + off) (depth + 1) live tm
        | Insn.Jal (rd, off) ->
          go (pc + off) (depth + 1) live (set_taint tm rd IS.empty)
        | Insn.Jalr _ | Insn.Ecall -> ()
        | Insn.Fence | Insn.Cflush _ -> go (pc + 4) (depth + 1) live tm)
    end
  in
  go start 0 true RM.empty

let width_bytes = function Insn.B -> 1 | Insn.H -> 2 | Insn.W -> 4 | Insn.D -> 8

let scan ?(window = default_window) (prog : Asm.program) =
  let code = discover prog in
  let found = Hashtbl.create 32 in
  let add kind root ~origins ~dep =
    let load = try IS.min_elt origins with Not_found -> dep in
    let key = (kind, root, dep) in
    if not (Hashtbl.mem found key) then
      Hashtbl.add found key
        {
          g_kind = kind;
          g_root_pc = root;
          g_load_pc = load;
          g_dep_pc = dep;
          g_chain = (root :: IS.elements origins) @ [ dep ];
        }
  in
  let branches = ref 0 and stores = ref 0 in
  Hashtbl.iter
    (fun pc insn ->
      match insn with
      | Insn.Branch (_, _, _, off) ->
        incr branches;
        (* either direction may be the trained (speculated) one *)
        List.iter
          (fun start ->
            walk code ~start ~window
              ~seed:(fun ~pc:_ ~base:_ ~off:_ ~w:_ ~live:_ -> true)
              ~on_dep:(fun ~pc:dep ~origins -> add V1 pc ~origins ~dep)
              ())
          [ pc + 4; pc + off ]
      | Insn.Store (sw, _, sbase, soff) ->
        incr stores;
        (* A later load is provably distinct from the store only when it
           uses the same still-live base register with a disjoint constant
           range; anything else may alias and can speculatively bypass. *)
        let sbytes = width_bytes sw in
        walk code ~start:(pc + 4) ~window ~watch:sbase
          ~seed:(fun ~pc:_ ~base ~off ~w ~live ->
            if live && base = sbase then
              not (off + width_bytes w <= soff || soff + sbytes <= off)
            else true)
          ~on_dep:(fun ~pc:dep ~origins -> add V4 pc ~origins ~dep)
          ()
      | _ -> ())
    code;
  let gadgets =
    Hashtbl.fold (fun _ g acc -> g :: acc) found []
    |> List.sort (fun a b ->
           compare
             (a.g_dep_pc, a.g_kind, a.g_root_pc)
             (b.g_dep_pc, b.g_kind, b.g_root_pc))
  in
  {
    gadgets;
    insns = Hashtbl.length code;
    branches = !branches;
    stores = !stores;
    window;
  }

let dep_pcs r = List.sort_uniq compare (List.map (fun g -> g.g_dep_pc) r.gadgets)

type score = {
  hits : int list;
  missed : int list;
  extra : int list;
  precision : float;
  recall : float;
}

let score r ~flagged =
  let flagged = List.sort_uniq compare flagged in
  let positives = dep_pcs r in
  let hits = List.filter (fun pc -> List.mem pc flagged) positives in
  let missed = List.filter (fun pc -> not (List.mem pc positives)) flagged in
  let extra = List.filter (fun pc -> not (List.mem pc flagged)) positives in
  let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den in
  {
    hits;
    missed;
    extra;
    precision = ratio (List.length hits) (List.length positives);
    recall = ratio (List.length hits) (List.length flagged);
  }

let kind_name = function V1 -> "v1" | V4 -> "v4"

let pp_report ppf r =
  let open Format in
  fprintf ppf "@[<v>";
  List.iter
    (fun g ->
      fprintf ppf "%s gadget: dependent access at 0x%x (chain %s)@,"
        (kind_name g.g_kind) g.g_dep_pc
        (String.concat " -> "
           (List.map (Printf.sprintf "0x%x") g.g_chain)))
    r.gadgets;
  fprintf ppf
    "%d gadget(s), %d distinct dependent pcs; scanned %d insns (%d branches, \
     %d stores), window %d@]"
    (List.length r.gadgets)
    (List.length (dep_pcs r))
    r.insns r.branches r.stores r.window

let report_to_json r =
  let module J = Gb_util.Json in
  J.Obj
    [
      ( "gadgets",
        J.List
          (List.map
             (fun g ->
               J.Obj
                 [
                   ("kind", J.String (kind_name g.g_kind));
                   ("root_pc", J.Int g.g_root_pc);
                   ("load_pc", J.Int g.g_load_pc);
                   ("dep_pc", J.Int g.g_dep_pc);
                   ("chain", J.List (List.map (fun p -> J.Int p) g.g_chain));
                 ])
             r.gadgets) );
      ("dep_pcs", J.List (List.map (fun p -> J.Int p) (dep_pcs r)));
      ("insns", J.Int r.insns);
      ("branches", J.Int r.branches);
      ("stores", J.Int r.stores);
      ("window", J.Int r.window);
    ]
