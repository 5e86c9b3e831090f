(* Demand-paged guest memory: [size] bytes in 4 KiB pages. Every page of
   a fresh memory is [zero_page], which all memories share and no store
   ever writes; the first store into a page gives it a private zeroed
   copy. A processor therefore allocates the pages its guest writes, not
   its whole address space.

   The text segment [\[text_lo, text_hi)] is the one range instructions
   are fetched from and the one range no store writes (W^X): everything
   that decodes guest code (the interpreter's decode cache, first-pass
   blocks, trace walks, stored lowerings) relies on its words never
   changing. *)

let page_bits = 12

let page_size = 1 lsl page_bits

let page_mask = page_size - 1

type t = {
  size : int;
  pages : Bytes.t array;
  scratch : Bytes.t;
      (* 8 bytes: an access that straddles two pages is gathered here
         before a load and staged here before a store *)
  mutable text_lo : int;
  mutable text_hi : int;  (* empty until {!set_text} *)
}

exception Fault of int

let zero_page = Bytes.make page_size '\000'

let create ~size =
  if size < 0 then invalid_arg "Mem.create: size";
  {
    size;
    pages = Array.make ((size + page_mask) lsr page_bits) zero_page;
    scratch = Bytes.create 8;
    text_lo = 0;
    text_hi = 0;
  }

let size t = t.size

(* [text_hi = 0] only while no text or an empty one at 0 is declared,
   and redeclaring those changes no word anything decoded *)
let set_text t ~lo ~hi =
  if t.text_hi > 0 then invalid_arg "Mem.set_text: text already declared";
  if lo land 3 <> 0 || hi land 3 <> 0 || lo < 0 || hi < lo || hi > t.size
  then invalid_arg "Mem.set_text: range";
  t.text_lo <- lo;
  t.text_hi <- hi

let text_lo t = t.text_lo

let text_hi t = t.text_hi

let check t addr n =
  (* overflow-proof form: [addr + n > len] wraps negative for
     attacker-controlled addresses near [max_int], letting the check pass
     and the unsafe accessors below run out of bounds. [n > len - addr]
     cannot overflow once [addr >= 0] is known ([n] is a small access
     size, [len - addr <= len]). *)
  if addr < 0 || n > t.size - addr then raise (Fault addr)

(* [check], and a write of [n] bytes at [addr] must not overlap text;
   past [check], [addr + n] cannot overflow *)
let[@inline] check_write t addr n =
  check t addr n;
  if addr < t.text_hi && addr + n > t.text_lo then raise (Fault addr)

(* The accessors below index a page only for an access of at least one
   byte that passed [check], so [addr lsr page_bits] is a valid index. *)
let[@inline] page t addr = Array.unsafe_get t.pages (addr lsr page_bits)

let own_page t addr =
  let p = Bytes.make page_size '\000' in
  Array.unsafe_set t.pages (addr lsr page_bits) p;
  p

(* The page a store at [addr] writes: a page still shared with
   [zero_page] is replaced by a private one first. *)
let[@inline] wpage t addr =
  let p = page t addr in
  if p != zero_page then p else own_page t addr

(* whether [n] bytes at [addr] run past the end of [addr]'s page *)
let[@inline] straddles addr n = addr land page_mask > page_size - n

(* The cold paths of an access that straddles two pages ([n] <= 8),
   byte by byte: [gather] copies the bytes into [t.scratch], [scatter]
   copies [t.scratch] out to them. *)
let gather t addr n =
  for i = 0 to n - 1 do
    let a = addr + i in
    Bytes.unsafe_set t.scratch i
      (Bytes.unsafe_get (page t a) (a land page_mask))
  done

let scatter t addr n =
  for i = 0 to n - 1 do
    let a = addr + i in
    Bytes.unsafe_set (wpage t a) (a land page_mask)
      (Bytes.unsafe_get t.scratch i)
  done

(* None of the accessors below allocates except {!load}, the cold
   value-returning form, and a store's first write into a page. The hot
   paths of both execution tiers use {!load_int}/{!store_int} for
   sub-word accesses (native ints), and the inlined {!load64}/{!store64}
   for doublewords, whose [int64] goes straight between the register
   file and a page without a box: [load64] picks the page and the offset
   in two separate [if]s and reads once, because an [int64] joined
   across the arms of an [if] would be boxed. *)

let load_int_straddling t addr size =
  if size <> 2 && size <> 4 then invalid_arg "Mem.load_int: size";
  gather t addr size;
  let lo = Bytes.get_uint16_le t.scratch 0 in
  if size = 2 then lo else lo lor (Bytes.get_uint16_le t.scratch 2 lsl 16)

let load_int t ~addr ~size =
  check t addr size;
  if straddles addr size then load_int_straddling t addr size
  else
    (* the page is read inside the arms: a size the match rejects may
       have passed [check] at an address past the last page *)
    let off = addr land page_mask in
    match size with
    | 1 -> Char.code (Bytes.unsafe_get (page t addr) off)
    | 2 -> Bytes.get_uint16_le (page t addr) off
    | 4 ->
      let p = page t addr in
      Bytes.get_uint16_le p off lor (Bytes.get_uint16_le p (off + 2) lsl 16)
    | _ -> invalid_arg "Mem.load_int: size"

let[@inline] load64 t ~addr =
  check t addr 8;
  let s = straddles addr 8 in
  if s then gather t addr 8;
  Bytes.get_int64_le
    (if s then t.scratch else page t addr)
    (if s then 0 else addr land page_mask)

let load t ~addr ~size =
  match size with
  | 1 | 2 | 4 -> Int64.of_int (load_int t ~addr ~size)
  | 8 -> load64 t ~addr
  | _ -> invalid_arg "Mem.load: size"

let store_int_straddling t addr size v =
  if size <> 2 && size <> 4 then invalid_arg "Mem.store_int: size";
  Bytes.set_uint16_le t.scratch 0 (v land 0xffff);
  Bytes.set_uint16_le t.scratch 2 ((v lsr 16) land 0xffff);
  scatter t addr size

let store_int t ~addr ~size v =
  check_write t addr size;
  if straddles addr size then store_int_straddling t addr size v
  else
    let off = addr land page_mask in
    match size with
    | 1 -> Bytes.unsafe_set (wpage t addr) off (Char.unsafe_chr (v land 0xff))
    | 2 -> Bytes.set_uint16_le (wpage t addr) off (v land 0xffff)
    | 4 ->
      let p = wpage t addr in
      Bytes.set_uint16_le p off (v land 0xffff);
      Bytes.set_uint16_le p (off + 2) ((v lsr 16) land 0xffff)
    | _ -> invalid_arg "Mem.store_int: size"

let[@inline] store64 t ~addr v =
  check_write t addr 8;
  if straddles addr 8 then begin
    Bytes.set_int64_le t.scratch 0 v;
    scatter t addr 8
  end
  else Bytes.set_int64_le (wpage t addr) (addr land page_mask) v

let store t ~addr ~size v =
  match size with
  | 1 | 2 | 4 -> store_int t ~addr ~size (Int64.to_int v)
  | 8 -> store64 t ~addr v
  | _ -> invalid_arg "Mem.store: size"

(* text is word-aligned, so an aligned word inside it sits in one page *)
let load_insn_word t ~addr =
  if addr land 3 <> 0 || addr < t.text_lo || addr >= t.text_hi then
    raise (Fault addr);
  Int32.to_int (Bytes.get_int32_le (page t addr) (addr land page_mask))
  land 0xFFFFFFFF

(* [f pos a off n] for each run of the [len] bytes at [addr] that lies in
   one page: [n] bytes from address [a], at offset [off] of its page and
   at [pos] from [addr] *)
let iter_chunks ~addr ~len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land page_mask in
    let n = Int.min (len - !pos) (page_size - off) in
    f !pos a off n;
    pos := !pos + n
  done

let blit_bytes t ~addr b =
  let len = Bytes.length b in
  (* an empty blit overlaps nothing *)
  (if len = 0 then check else check_write) t addr len;
  iter_chunks ~addr ~len (fun pos a off n ->
      Bytes.blit b pos (wpage t a) off n)

let read_bytes t ~addr ~len =
  check t addr len;
  if len < 0 then invalid_arg "Mem.read_bytes: len";
  let b = Bytes.create len in
  iter_chunks ~addr ~len (fun pos a off n ->
      Bytes.blit (page t a) off b pos n);
  b

let copy t =
  {
    size = t.size;
    pages =
      Array.map (fun p -> if p == zero_page then p else Bytes.copy p) t.pages;
    scratch = Bytes.create 8;
    text_lo = t.text_lo;
    text_hi = t.text_hi;
  }
