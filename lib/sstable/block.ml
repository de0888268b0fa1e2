module Codec = Lsm_util.Codec
module Crc32c = Lsm_util.Crc32c
module Comparator = Lsm_util.Comparator
module Entry = Lsm_record.Entry
module Slice = Lsm_record.Slice
module Iter = Lsm_record.Iter

module Builder = struct
  type t = {
    restart_interval : int;
    mutable buf : Buffer.t;
    mutable restarts : int list;  (** reversed offsets *)
    mutable nrestarts : int;
        (** [List.length restarts], kept incrementally — [size_estimate]
            runs once per entry, and walking the list each call made
            block building quadratic in entries per block *)
    mutable since_restart : int;
    mutable last_key : string;
    mutable count : int;
  }

  let create ?(restart_interval = 16) () =
    {
      restart_interval;
      buf = Buffer.create 4096;
      restarts = [];
      nrestarts = 0;
      since_restart = 0;
      last_key = "";
      count = 0;
    }

  let common_prefix_len a b =
    let n = min (String.length a) (String.length b) in
    let rec loop i = if i < n && a.[i] = b.[i] then loop (i + 1) else i in
    loop 0

  let add t (e : Entry.t) =
    let shared =
      if t.since_restart >= t.restart_interval || t.count = 0 then begin
        t.restarts <- Buffer.length t.buf :: t.restarts;
        t.nrestarts <- t.nrestarts + 1;
        t.since_restart <- 0;
        0
      end
      else common_prefix_len t.last_key e.key
    in
    let unshared = String.length e.key - shared in
    Codec.put_varint t.buf shared;
    Codec.put_varint t.buf unshared;
    Buffer.add_substring t.buf e.key shared unshared;
    Codec.put_varint t.buf e.seqno;
    Codec.put_u8 t.buf (Entry.kind_to_int e.kind);
    Codec.put_lp_string t.buf e.value;
    t.last_key <- e.key;
    t.since_restart <- t.since_restart + 1;
    t.count <- t.count + 1

  let size_estimate t = Buffer.length t.buf + (4 * (t.nrestarts + 2))
  let count t = t.count
  let is_empty t = t.count = 0

  let finish ?tag t =
    List.iter (Codec.put_u32 t.buf) (List.rev t.restarts);
    Codec.put_u32 t.buf t.nrestarts;
    let n = Buffer.length t.buf in
    let base = match tag with Some _ -> 1 | None -> 0 in
    let block = Bytes.create (base + n + 4) in
    Option.iter (Bytes.set block 0) tag;
    Buffer.blit t.buf 0 block base n;
    (* The CRC reads the body in place through a temporary string view
       that it does not retain; the trailer is written after it returns. *)
    let crc = Crc32c.mask (Crc32c.sub (Bytes.unsafe_to_string block) ~pos:base ~len:n) in
    Bytes.set_int32_le block (base + n) crc;
    Buffer.clear t.buf;
    t.restarts <- [];
    t.nrestarts <- 0;
    t.since_restart <- 0;
    t.last_key <- "";
    t.count <- 0;
    Bytes.unsafe_to_string block
end

(* Copying verify: strips the CRC trailer into a fresh body string. Kept
   as the reference path for tools and the allocation bench's "before"
   arm; the engine reads through [parse_checked], which verifies in
   place. *)
let decode_check block =
  let n = String.length block in
  if n < 8 then raise (Codec.Corrupt "block too small");
  let body = String.sub block 0 (n - 4) in
  let stored = Int32.of_int (Codec.get_u32 (Codec.reader ~pos:(n - 4) block)) in
  if Crc32c.mask (Crc32c.string body) <> stored then
    raise (Codec.Corrupt "block checksum mismatch");
  body

(* A verified block, decoded once: the backing buffer is retained whole
   (records live at [pbase, pdata_end)), restart offsets are absolute
   positions in [pbody]. This is what the block cache stores, so a cache
   hit pays neither CRC nor trailer parsing. *)
type parsed = { pbody : string; pbase : int; pdata_end : int; prestarts : int array }

let parsed_cost p = String.length p.pbody + (8 * Array.length p.prestarts)

let parse_checked ?(base = 0) block =
  let n = String.length block in
  if base < 0 || base > n then invalid_arg "Block.parse_checked: bad base";
  if n - base < 8 then raise (Codec.Corrupt "block too small");
  let stored = Int32.of_int (Codec.get_u32 (Codec.reader ~pos:(n - 4) block)) in
  if Crc32c.mask (Crc32c.sub block ~pos:base ~len:(n - 4 - base)) <> stored then
    raise (Codec.Corrupt "block checksum mismatch");
  let count = Codec.get_u32 (Codec.reader ~pos:(n - 8) block) in
  let data_end = n - 8 - (4 * count) in
  if data_end < base then raise (Codec.Corrupt "bad restart count");
  let restarts =
    Array.init count (fun i -> base + Codec.get_u32 (Codec.reader ~pos:(data_end + (4 * i)) block))
  in
  { pbody = block; pbase = base; pdata_end = data_end; prestarts = restarts }

module Cursor = struct
  (* An arena cursor over one parsed block. The current key lives in
     [kbuf] (one reusable buffer, extended in place when the shared
     prefix grows); the current value is an [(off, len)] window into the
     block body. Nothing per-record is allocated until the caller
     materializes via [entry]/[key]/[value]. *)
  type t = {
    cmp : Comparator.t;
    p : parsed;
    mutable pos : int;  (** read position of the next record *)
    mutable kbuf : Bytes.t;
    mutable klen : int;
    mutable cseqno : int;
    mutable ckind : Entry.kind;
    mutable voff : int;
    mutable vlen : int;
    mutable cvalid : bool;
  }

  let make cmp p =
    {
      cmp;
      p;
      pos = p.pdata_end;
      kbuf = Bytes.create 64;
      klen = 0;
      cseqno = 0;
      ckind = Entry.Put;
      voff = 0;
      vlen = 0;
      cvalid = false;
    }

  (* Manual byte readers over [p.pbody] bounded by [pdata_end]: the hot
     loop must not allocate a Codec.reader per record. *)
  let u8 c =
    if c.pos >= c.p.pdata_end then raise (Codec.Corrupt "truncated record");
    let v = Char.code (String.unsafe_get c.p.pbody c.pos) in
    c.pos <- c.pos + 1;
    v

  (* Top-level recursion, not a nested [let rec]: a local loop would
     capture [c] and allocate a closure on every call — tens of minor
     words per seek on the hottest path in the engine. *)
  let rec varint_loop c shift acc =
    if shift > 63 then raise (Codec.Corrupt "varint too long");
    let b = u8 c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint_loop c (shift + 7) acc

  let varint c = varint_loop c 0 0

  let grow_kbuf c need =
    let cap = max need (2 * Bytes.length c.kbuf) in
    let nb = Bytes.create cap in
    (* Only the live prefix of the old arena carries over. *)
    Bytes.blit c.kbuf 0 nb 0 c.klen;
    c.kbuf <- nb

  let advance c =
    if c.pos >= c.p.pdata_end then c.cvalid <- false
    else begin
      let shared = varint c in
      let unshared = varint c in
      if shared > c.klen then raise (Codec.Corrupt "bad shared prefix");
      if c.pos + unshared > c.p.pdata_end then raise (Codec.Corrupt "truncated key");
      if Bytes.length c.kbuf < shared + unshared then grow_kbuf c (shared + unshared);
      Bytes.blit_string c.p.pbody c.pos c.kbuf shared unshared;
      c.pos <- c.pos + unshared;
      c.klen <- shared + unshared;
      c.cseqno <- varint c;
      c.ckind <- Entry.kind_of_int (u8 c);
      let vlen = varint c in
      if c.pos + vlen > c.p.pdata_end then raise (Codec.Corrupt "truncated value");
      c.voff <- c.pos;
      c.vlen <- vlen;
      c.pos <- c.pos + vlen;
      c.cvalid <- true
    end

  let reset_to c off =
    c.pos <- off;
    c.klen <- 0;
    c.cvalid <- false;
    advance c

  let seek_to_first c =
    if Array.length c.p.prestarts = 0 then c.cvalid <- false
    else reset_to c c.p.prestarts.(0)

  (* Compare the full key stored at restart [i] against [target] without
     materializing it: restart records carry shared = 0, so the key is a
     contiguous window of the body. Leaves [c.pos] untouched. *)
  let restart_cmp c i target =
    let saved = c.pos in
    c.pos <- c.p.prestarts.(i);
    let shared = varint c in
    if shared <> 0 then raise (Codec.Corrupt "bad shared prefix");
    let unshared = varint c in
    if c.pos + unshared > c.p.pdata_end then raise (Codec.Corrupt "truncated key");
    let r = Comparator.compare_sub c.cmp c.p.pbody ~pos:c.pos ~len:unshared target in
    c.pos <- saved;
    r

  let seek c target =
    if Array.length c.p.prestarts = 0 then c.cvalid <- false
    else begin
      (* Rightmost restart whose key is < target (so the target, if
         present, lies at or after it). *)
      let lo = ref 0 and hi = ref (Array.length c.p.prestarts - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if restart_cmp c mid target < 0 then lo := mid else hi := mid - 1
      done;
      reset_to c c.p.prestarts.(!lo);
      let continue = ref true in
      while !continue do
        if c.cvalid && Comparator.compare_bytes c.cmp c.kbuf ~len:c.klen target < 0 then advance c
        else continue := false
      done
    end

  let valid c = c.cvalid
  let next c = if c.cvalid then advance c

  let require c who = if not c.cvalid then invalid_arg ("Block.Cursor." ^ who ^ ": not valid")

  let key c =
    require c "key";
    Bytes.sub_string c.kbuf 0 c.klen

  let key_compare c target =
    require c "key_compare";
    Comparator.compare_bytes c.cmp c.kbuf ~len:c.klen target

  let seqno c =
    require c "seqno";
    c.cseqno

  let kind c =
    require c "kind";
    c.ckind

  let value_slice c =
    require c "value_slice";
    Slice.v c.p.pbody ~off:c.voff ~len:c.vlen

  let value c =
    require c "value";
    String.sub c.p.pbody c.voff c.vlen

  let entry c =
    require c "entry";
    Entry.of_value_slice
      ~key:(Bytes.sub_string c.kbuf 0 c.klen)
      ~seqno:c.cseqno ~kind:c.ckind
      (Slice.v c.p.pbody ~off:c.voff ~len:c.vlen)
end

(* Point lookup: a seek-positioned cursor, skipping Iter.t construction.
   The caller walks versions with [Cursor.next] and materializes only
   the record it takes. *)
let find cmp p target =
  let c = Cursor.make cmp p in
  Cursor.seek c target;
  c

let iterator (cmp : Comparator.t) p =
  let c = Cursor.make cmp p in
  (* Merging iterators call [entry] several times per record; memoize
     the materialization so each record is built at most once. *)
  let memo = ref None in
  let entry () =
    match !memo with
    | Some e -> e
    | None ->
      let e = Cursor.entry c in
      memo := Some e;
      e
  in
  {
    Iter.valid = (fun () -> Cursor.valid c);
    entry;
    next =
      (fun () ->
        memo := None;
        Cursor.next c);
    seek =
      (fun target ->
        memo := None;
        Cursor.seek c target);
    seek_to_first =
      (fun () ->
        memo := None;
        Cursor.seek_to_first c);
  }
