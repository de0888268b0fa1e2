(* Every function here is on a filter probe or a filter build, so none
   may allocate beyond its result. [splitmix64] is [@inline] and
   [fnv1a64] folds into a local [Int64] that ocamlopt keeps unboxed; a
   [String.iter] closure over an [Int64 ref] would box every byte. The
   outputs are part of the on-disk format (filter bits) and of shard
   placement, so they must never change. *)

let[@inline] splitmix64 z =
  let z = Int64.add z 0x9e3779b97f4a7c15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    let byte = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
  done;
  !h

let[@inline] seeded64 seed s = splitmix64 (Int64.logxor (fnv1a64 s) seed)
let string64 ?(seed = 0L) s = seeded64 seed s

let mask62 = (1 lsl 62) - 1

let double_hash s =
  let h = seeded64 0L s in
  let h1 = Int64.to_int h land mask62 in
  let h2 = Int64.to_int (splitmix64 h) land mask62 lor 1 in
  (h1, h2)

let fingerprint s ~bits =
  if bits < 1 || bits > 30 then invalid_arg "Hashing.fingerprint: bits out of range";
  let h = Int64.to_int (seeded64 0x5bd1e995L s) in
  let fp = (h lsr 7) land ((1 lsl bits) - 1) in
  if fp = 0 then 1 else fp
