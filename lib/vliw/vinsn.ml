type reg = int

let guest_regs = 32

type operand = R of reg | I of int64

type op =
  | Nop
  | Alu of { op : Gb_riscv.Insn.oprr; dst : reg; a : operand; b : operand }
  | Load of {
      w : Gb_riscv.Insn.width;
      unsigned : bool;
      dst : reg;
      base : operand;
      off : int;
      spec : int option;
      id : int;
      pc : int;
      hoisted : bool;
    }
  | Store of {
      w : Gb_riscv.Insn.width;
      src : operand;
      base : operand;
      off : int;
      id : int;
      pc : int;
    }
  | Branch of {
      cond : Gb_riscv.Insn.branch_cond;
      a : operand;
      b : operand;
      stub : int;
    }
  | Chk of { tag : int; stub : int }
  | Mv of { dst : reg; src : operand }
  | Rdcycle of { dst : reg }
  | Cflush of { base : operand; off : int; id : int; pc : int }
  | Fence
  | Exit of { stub : int }

type bundle = op array

type meta = {
  spec_loads : int;
  branch_spec_loads : int;
  spectre_patterns : int;
  constrained_loads : int;
  fences_inserted : int;
  cut_protects : int;
}

let empty_meta =
  {
    spec_loads = 0;
    branch_spec_loads = 0;
    spectre_patterns = 0;
    constrained_loads = 0;
    fences_inserted = 0;
    cut_protects = 0;
  }

(* Extensible so Pipeline, which depends on Machine, can add the decoded
   form without a dependency cycle. *)
type decoded = ..

type decoded += Undecoded

type stub = {
  commits : (reg * operand) list;
  n_commits : int;
      (* [List.length commits], precomputed at construction so the
         pipeline's exit path doesn't walk the list per trace exit *)
  target_pc : int;
  exit_id : int;
}

type trace = {
  entry_pc : int;
  bundles : bundle array;
  stubs : stub array;
  n_regs : int;
  guest_insns : int;
  meta : meta;
  mutable decoded : decoded;
}

let make_stub ?(exit_id = max_int) ~commits ~target_pc () =
  { commits; n_commits = List.length commits; target_pc; exit_id }

type exit_kind = Fallthrough | Side_exit | Rollback

(* Mutable so {!Machine} can own one scratch record that every pipeline
   pass refills: allocating a fresh exit_info per trace run is measurable
   on the hot loop. Consumers read it synchronously before the next run;
   anything that must retain an exit must copy the fields out. *)
type exit_info = {
  mutable next_pc : int;
  mutable kind : exit_kind;
}

let bundle_count trace = Array.length trace.bundles

let pp_reg ppf r =
  if r < guest_regs then Format.fprintf ppf "%s" (Gb_riscv.Reg.name r)
  else Format.fprintf ppf "h%d" (r - guest_regs)

let pp_operand ppf = function
  | R r -> pp_reg ppf r
  | I v -> Format.fprintf ppf "%Ld" v

let width_letter = function
  | Gb_riscv.Insn.B -> 'b'
  | Gb_riscv.Insn.H -> 'h'
  | Gb_riscv.Insn.W -> 'w'
  | Gb_riscv.Insn.D -> 'd'

let pp_op ppf = function
  | Nop -> Format.fprintf ppf "nop"
  | Alu { op; dst; a; b } ->
    Format.fprintf ppf "%s %a, %a, %a"
      (Gb_riscv.Insn.to_string (Gb_riscv.Insn.Op (op, 0, 0, 0))
      |> String.split_on_char ' ' |> List.hd)
      pp_reg dst pp_operand a pp_operand b
  | Load { w; unsigned; dst; base; off; spec; hoisted; _ } ->
    Format.fprintf ppf "l%c%s%s%s %a, %d(%a)" (width_letter w)
      (if unsigned then "u" else "")
      (match spec with Some tag -> Printf.sprintf ".spec[%d]" tag | None -> "")
      (if hoisted then ".hoist" else "")
      pp_reg dst off pp_operand base
  | Store { w; src; base; off; _ } ->
    Format.fprintf ppf "s%c %a, %d(%a)" (width_letter w) pp_operand src off
      pp_operand base
  | Branch { cond; a; b; stub } ->
    Format.fprintf ppf "exit.%s %a, %a -> stub%d"
      (Gb_riscv.Insn.to_string (Gb_riscv.Insn.Branch (cond, 0, 0, 0))
      |> String.split_on_char ' ' |> List.hd)
      pp_operand a pp_operand b stub
  | Chk { tag; stub } -> Format.fprintf ppf "chk [%d] -> stub%d" tag stub
  | Mv { dst; src } -> Format.fprintf ppf "mv %a, %a" pp_reg dst pp_operand src
  | Rdcycle { dst } -> Format.fprintf ppf "rdcycle %a" pp_reg dst
  | Cflush { base; off; _ } ->
    Format.fprintf ppf "cflush %d(%a)" off pp_operand base
  | Fence -> Format.fprintf ppf "fence"
  | Exit { stub } -> Format.fprintf ppf "exit -> stub%d" stub

let pp_trace ppf trace =
  Format.fprintf ppf "trace @@0x%x (%d guest insns, %d bundles)@."
    trace.entry_pc trace.guest_insns (Array.length trace.bundles);
  Array.iteri
    (fun i bundle ->
      Format.fprintf ppf "  %3d: " i;
      Array.iter (fun op -> Format.fprintf ppf "[%a] " pp_op op) bundle;
      Format.fprintf ppf "@.")
    trace.bundles;
  Array.iteri
    (fun i stub ->
      Format.fprintf ppf "  stub%d -> 0x%x:" i stub.target_pc;
      List.iter
        (fun (r, src) ->
          Format.fprintf ppf " %a<-%a" pp_reg r pp_operand src)
        stub.commits;
      Format.fprintf ppf "@.")
    trace.stubs
