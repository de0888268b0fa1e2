(* Slicing-by-8 over native ints. Entry [k * 256 + b] of [table] is the
   CRC register contribution of byte [b] followed by [k] zero bytes, so
   one 8-byte step is eight independent lookups. The table is built at
   module initialisation: a lazily built one is forced by whichever
   domain checksums first, and two domains forcing it at once raise
   [Lazy.Undefined]. *)

let polynomial = 0x82f63b78

let table =
  let t = Array.make (8 * 256) 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor polynomial else !c lsr 1
    done;
    t.(i) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let c = t.(i - 256) in
    t.(i) <- (c lsr 8) lxor t.(c land 0xff)
  done;
  t

(* A 63-bit int cannot hold a full 64-bit word, so each word is read as
   two 32-bit halves. *)
let[@inline] u32 s i = Int32.to_int (String.get_int32_le s i) land 0xffffffff

let sub ?(init = 0l) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32c.sub: out of bounds";
  let c = ref (lnot (Int32.to_int init) land 0xffffffff) in
  let i = ref pos in
  let words_end = pos + (len land lnot 7) in
  while !i < words_end do
    let lo = u32 s !i lxor !c and hi = u32 s (!i + 4) in
    c :=
      table.((7 * 256) + (lo land 0xff))
      lxor table.((6 * 256) + ((lo lsr 8) land 0xff))
      lxor table.((5 * 256) + ((lo lsr 16) land 0xff))
      lxor table.((4 * 256) + (lo lsr 24))
      lxor table.((3 * 256) + (hi land 0xff))
      lxor table.((2 * 256) + ((hi lsr 8) land 0xff))
      lxor table.(256 + ((hi lsr 16) land 0xff))
      lxor table.(hi lsr 24);
    i := !i + 8
  done;
  for j = words_end to pos + len - 1 do
    c := (!c lsr 8) lxor table.((!c lxor Char.code s.[j]) land 0xff)
  done;
  Int32.of_int (lnot !c land 0xffffffff)

let string ?init s = sub ?init s ~pos:0 ~len:(String.length s)

let mask_delta = 0xa282ead8l

let mask crc =
  let rotated =
    Int32.logor (Int32.shift_right_logical crc 15) (Int32.shift_left crc 17)
  in
  Int32.add rotated mask_delta

let unmask masked =
  let rotated = Int32.sub masked mask_delta in
  Int32.logor (Int32.shift_right_logical rotated 17) (Int32.shift_left rotated 15)
