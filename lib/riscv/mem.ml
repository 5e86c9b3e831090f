type t = { data : Bytes.t }

exception Fault of int

let create ~size = { data = Bytes.make size '\000' }

let size t = Bytes.length t.data

let check t addr n =
  (* overflow-proof form: [addr + n > len] wraps negative for
     attacker-controlled addresses near [max_int], letting the check pass
     and the unsafe accessors below run out of bounds. [n > len - addr]
     cannot overflow once [addr >= 0] is known ([n] is a small access
     size, [len - addr <= len]). *)
  if addr < 0 || n > Bytes.length t.data - addr then raise (Fault addr)

(* None of the accessors below allocates except {!load}, the cold
   value-returning form. The hot paths of both execution tiers use
   {!load_int}/{!store_int} for sub-word accesses (native ints), and the
   inlined {!load64}/{!store64} for doublewords, whose [int64] goes
   straight between the register file and [Bytes] without a box. *)

let load_int t ~addr ~size =
  check t addr size;
  match size with
  | 1 -> Char.code (Bytes.unsafe_get t.data addr)
  | 2 -> Bytes.get_uint16_le t.data addr
  | 4 ->
    Bytes.get_uint16_le t.data addr
    lor (Bytes.get_uint16_le t.data (addr + 2) lsl 16)
  | _ -> invalid_arg "Mem.load_int: size"

let[@inline] load64 t ~addr =
  check t addr 8;
  Bytes.get_int64_le t.data addr

let load t ~addr ~size =
  match size with
  | 1 | 2 | 4 -> Int64.of_int (load_int t ~addr ~size)
  | 8 -> load64 t ~addr
  | _ -> invalid_arg "Mem.load: size"

let store_int t ~addr ~size v =
  check t addr size;
  match size with
  | 1 -> Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xff))
  | 2 -> Bytes.set_uint16_le t.data addr (v land 0xffff)
  | 4 ->
    Bytes.set_uint16_le t.data addr (v land 0xffff);
    Bytes.set_uint16_le t.data (addr + 2) ((v lsr 16) land 0xffff)
  | _ -> invalid_arg "Mem.store_int: size"

let[@inline] store64 t ~addr v =
  check t addr 8;
  Bytes.set_int64_le t.data addr v

let store t ~addr ~size v =
  match size with
  | 8 -> store64 t ~addr v
  | _ -> store_int t ~addr ~size (Int64.to_int v)

let load_insn_word t ~addr =
  check t addr 4;
  Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFFFFFF

let blit_bytes t ~addr b =
  check t addr (Bytes.length b);
  Bytes.blit b 0 t.data addr (Bytes.length b)

let read_bytes t ~addr ~len =
  check t addr len;
  Bytes.sub t.data addr len

let copy t = { data = Bytes.copy t.data }
