(* Read-path allocation bench (`bench/main.exe -- --read-path`).

   Measures what the zero-copy block read path actually buys, per point
   get, with GC counters rather than intuition:

   - the BEFORE arm is a verbatim replica of the pre-PR read path,
     copied from this repo's history: the block cache stores the framed
     on-disk string, so every hit re-pays unframe (copy or LZ
     decompress), [decode_check] (CRC over a fresh copy of the body),
     restart-trailer parsing, and an iterator that allocates key, value
     and [Entry.t] for every record it steps over;
   - the AFTER arm is the shipped path: the cache stores the verified
     [Block.parsed] view, and [Block.find] walks it with an arena
     cursor, allocating only the one taken [Entry.t].

   Both arms are exercised over the same block, hot (cached) and cold
   (decode per read), under C_none and C_lz framing; a DB-level section
   reports end-to-end point-get cost and bytes-on-disk for both
   compression knobs. Results go to BENCH_read_path.json.

   This is also the CI allocation-regression gate: the process exits 1
   unless (a) the hot C_lz after-arm spends at most half the minor
   words/op of the before-arm, (b) it is faster, (c) hot-hit minor
   words/op stay under the committed ceiling below, and (d) a hot-cache
   [Db.get] (C_none) stays under its own ceiling one layer up. *)

open Common
module Block = Lsm_sstable.Block
module Sstable = Lsm_sstable.Sstable
module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Codec = Lsm_util.Codec
module Crc32c = Lsm_util.Crc32c
module Comparator = Lsm_util.Comparator
module Lz = Lsm_util.Lz

(* Allocation ceiling for one hot-cache point get on the new path
   (cursor + seek + one materialized entry), in minor words. Measured
   45 words/op on the reference host: 21 for the cursor (record + its
   64-byte key arena), 24 to materialize the taken entry; the seek
   itself allocates nothing. The slack absorbs compiler drift but is
   deliberately tight enough to catch closure creep (a nested [let rec]
   in the record loop costs ~100 words/op) and copying regressions
   (one block-body copy alone is block_size/8 words). *)
let hot_hit_words_ceiling = 100.0

(* Allocation ceiling for one hot-cache [Db.get] on the C_none tree, in
   minor words: everything above the block cursor (read context, version
   pin, memtable probe, per-run fence search, filter probe, table and
   block cache lookups) plus the block search itself. Measured 157
   words/op on a 2-vCPU host with either backend (the version pin is a
   lock-free count that allocates nothing), once the per-run step
   stopped allocating; it was 408 with a boxed FNV fold, a
   closure per filter probe, two filter checks per table and a run list
   copied to an array per get. The slack allows compiler drift, not a
   return of any of those. *)
let db_hot_words_ceiling = 300.0

(* ---------------- the before-arm: pre-PR path, replicated ----------- *)

(* Everything in this module is the old implementation kept verbatim
   (modulo module prefixes) so the comparison is against the real
   predecessor, not a strawman. *)
module Legacy = struct
  type parsed = { body : string; data_end : int; restarts : int array }

  let decode_check block =
    let n = String.length block in
    if n < 8 then raise (Codec.Corrupt "block too small");
    let body = String.sub block 0 (n - 4) in
    let stored = Int32.of_int (Codec.get_u32 (Codec.reader ~pos:(n - 4) block)) in
    if Crc32c.mask (Crc32c.string body) <> stored then
      raise (Codec.Corrupt "block checksum mismatch");
    body

  let parse body =
    let n = String.length body in
    if n < 4 then raise (Codec.Corrupt "block body too small");
    let count = Codec.get_u32 (Codec.reader ~pos:(n - 4) body) in
    let data_end = n - 4 - (4 * count) in
    if data_end < 0 then raise (Codec.Corrupt "bad restart count");
    let restarts =
      Array.init count (fun i -> Codec.get_u32 (Codec.reader ~pos:(data_end + (4 * i)) body))
    in
    { body; data_end; restarts }

  let decode_record p ~prev_key ~pos =
    let r = Codec.reader ~pos p.body in
    let shared = Codec.get_varint r in
    let unshared = Codec.get_varint r in
    if shared > String.length prev_key then raise (Codec.Corrupt "bad shared prefix");
    let key = String.sub prev_key 0 shared ^ Codec.get_raw r unshared in
    let seqno = Codec.get_varint r in
    let kind = Entry.kind_of_int (Codec.get_u8 r) in
    let value = Codec.get_lp_string r in
    ({ Entry.key; seqno; kind; value }, r.Codec.pos)

  let iterator (cmp : Comparator.t) body =
    let p = parse body in
    let pos = ref p.data_end in
    let current = ref None in
    let advance () =
      if !pos >= p.data_end then current := None
      else begin
        let prev_key = match !current with Some e -> e.Entry.key | None -> "" in
        let e, next = decode_record p ~prev_key ~pos:!pos in
        current := Some e;
        pos := next
      end
    in
    let reset_to offset =
      pos := offset;
      current := None;
      advance ()
    in
    let restart_key i =
      let e, _ = decode_record p ~prev_key:"" ~pos:p.restarts.(i) in
      e.Entry.key
    in
    let seek target =
      if Array.length p.restarts = 0 then current := None
      else begin
        let lo = ref 0 and hi = ref (Array.length p.restarts - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi + 1) / 2 in
          if cmp.compare (restart_key mid) target < 0 then lo := mid else hi := mid - 1
        done;
        reset_to p.restarts.(!lo);
        let continue = ref true in
        while !continue do
          match !current with
          | Some e when cmp.compare e.Entry.key target < 0 -> advance ()
          | Some _ | None -> continue := false
        done
      end
    in
    {
      Iter.valid = (fun () -> !current <> None);
      entry =
        (fun () ->
          match !current with Some e -> e | None -> invalid_arg "Block.iterator: not valid");
      next = (fun () -> if !current <> None then advance ());
      seek;
      seek_to_first =
        (fun () ->
          if Array.length p.restarts = 0 then current := None else reset_to p.restarts.(0));
    }

  let unframe_block framed =
    let r = Codec.reader framed in
    match Codec.get_u8 r with
    | 0 -> Codec.get_raw r (Codec.remaining r)
    | 1 ->
      let raw_len = Codec.get_varint r in
      Lz.decompress (Codec.get_raw r (Codec.remaining r)) ~expected_len:raw_len
    | n -> raise (Codec.Corrupt (Printf.sprintf "unknown block frame tag %d" n))

  (* Pre-PR [Sstable.get] on a cached block: the cache held the framed
     string, so a hit is unframe + decode_check + iterator + seek. *)
  let point_get cmp framed key =
    let it = iterator cmp (decode_check (unframe_block framed)) in
    it.Iter.seek key;
    if it.Iter.valid () then Some (it.Iter.entry ()) else None
end

(* ---------------- fixture block ------------------------------------ *)

let cmp = Comparator.bytewise
let entries_per_block = 64
let value_size = 64

(* Mildly compressible values (repeated motif + unique tail) so the LZ
   arm behaves like real data rather than all-zero best cases. *)
let fixture_value i =
  let b = Bytes.make value_size 'v' in
  let tag = Printf.sprintf "#%06d" i in
  Bytes.blit_string tag 0 b (value_size - String.length tag) (String.length tag);
  Bytes.to_string b

let fixture_keys = Array.init entries_per_block key

let raw_block =
  let b = Block.Builder.create ~restart_interval:16 () in
  Array.iteri (fun i k -> Block.Builder.add b (Entry.put ~key:k ~seqno:(i + 1) (fixture_value i))) fixture_keys;
  Block.Builder.finish b

let frame_none = "\x00" ^ raw_block

let frame_lz =
  let packed = Lz.compress raw_block in
  let b = Buffer.create (String.length packed + 8) in
  Codec.put_u8 b 1;
  Codec.put_varint b (String.length raw_block);
  Buffer.add_string b packed;
  Buffer.contents b

(* What the new cache stores for each framing: C_none blocks are parsed
   in place behind the tag byte (base 1, no copy at all); C_lz blocks
   are decompressed once and parsed at base 0. *)
let parsed_of_frame framed =
  match framed.[0] with
  | '\x00' -> Block.parse_checked ~base:1 framed
  | _ ->
    let r = Codec.reader ~pos:1 framed in
    let raw_len = Codec.get_varint r in
    Block.parse_checked (Lz.decompress (Codec.get_raw r (Codec.remaining r)) ~expected_len:raw_len)

let new_point_get parsed k =
  let cur = Block.find cmp parsed k in
  if Block.Cursor.valid cur && Block.Cursor.key_compare cur k = 0 then
    Some (Block.Cursor.entry cur)
  else None

(* ---------------- measurement harness ------------------------------ *)

let sink = ref 0

let consume = function
  | Some e -> sink := !sink + String.length e.Entry.value
  | None -> failwith "read_path bench: fixture key not found"

(* ns/op and minor words/op for [f] run [n] times. A warmup pass gets
   closures and the arena to steady state; a full major between warmup
   and measurement keeps promotion noise out of the counters. *)
let measure ~n f =
  for i = 0 to 99 do
    f (i land (entries_per_block - 1))
  done;
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    f (i land (entries_per_block - 1))
  done;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  ((t1 -. t0) *. 1e9 /. float_of_int n, (w1 -. w0) /. float_of_int n)

type row = {
  compression : string;
  arm : string;  (** legacy_hot | new_hot | new_cold *)
  ns_per_op : float;
  words_per_op : float;
}

let block_rows () =
  let n = 200_000 in
  let one compression framed =
    let parsed = parsed_of_frame framed in
    (* legacy hot: the framed string is "cached"; every hit re-decodes.
       (legacy cold is the same work plus the device read, so hot is
       its best case — the fair one to beat.) *)
    let l_ns, l_w = measure ~n (fun i -> consume (Legacy.point_get cmp framed fixture_keys.(i))) in
    (* new hot: cache hit hands back the parsed view, zero decode. *)
    let h_ns, h_w = measure ~n (fun i -> consume (new_point_get parsed fixture_keys.(i))) in
    (* new cold: miss path, decode-once cost paid inline. *)
    let c_ns, c_w =
      measure ~n:(n / 10) (fun i -> consume (new_point_get (parsed_of_frame framed) fixture_keys.(i)))
    in
    [
      { compression; arm = "legacy_hot"; ns_per_op = l_ns; words_per_op = l_w };
      { compression; arm = "new_hot"; ns_per_op = h_ns; words_per_op = h_w };
      { compression; arm = "new_cold"; ns_per_op = c_ns; words_per_op = c_w };
    ]
  in
  one "none" frame_none @ one "lz" frame_lz

(* ---------------- end-to-end section ------------------------------- *)

type db_row = {
  d_compression : string;
  d_mode : string;  (** hot | cold *)
  d_ns_per_op : float;
  d_words_per_op : float;
  d_bytes_on_disk : int;
}

let db_rows () =
  let unique = 4_000 in
  let lookups = 20_000 in
  let one compression name =
    let dev = Device.in_memory () in
    let config =
      { (bench_config ~cache:(8 * 1024 * 1024) ()) with compression; wal_enabled = false }
    in
    let db = Db.open_db ~config ~dev () in
    (* Compressible values (same motif as the block fixture), not
       Common.ingest's random bytes: random values make frame_block's
       "only if it shrinks" check fall back to raw framing and the two
       compression arms would land on identical bytes on disk. *)
    let rng = Rng.create 42 in
    for _ = 1 to 20_000 do
      let i = Rng.int rng unique in
      Db.put db ~key:(key i) (fixture_value i)
    done;
    Db.flush db;
    Db.major_compact db;
    let bytes_on_disk = Device.total_bytes dev in
    let rng = Rng.create 7 in
    let probe = Array.init lookups (fun _ -> key (Rng.int rng unique)) in
    let run () =
      Gc.full_major ();
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      for i = 0 to lookups - 1 do
        match Db.get db probe.(i) with
        | Some v -> sink := !sink + String.length v
        | None -> ()
      done;
      let t1 = Unix.gettimeofday () in
      let w1 = Gc.minor_words () in
      ( (t1 -. t0) *. 1e9 /. float_of_int lookups,
        (w1 -. w0) /. float_of_int lookups )
    in
    ignore (run ());
    (* warm the block cache *)
    let hot_ns, hot_w = run () in
    Db.set_block_cache_bytes db 0;
    (* cache off: every get re-reads and re-decodes *)
    let cold_ns, cold_w = run () in
    Db.close db;
    [
      {
        d_compression = name;
        d_mode = "hot";
        d_ns_per_op = hot_ns;
        d_words_per_op = hot_w;
        d_bytes_on_disk = bytes_on_disk;
      };
      {
        d_compression = name;
        d_mode = "cold";
        d_ns_per_op = cold_ns;
        d_words_per_op = cold_w;
        d_bytes_on_disk = bytes_on_disk;
      };
    ]
  in
  one Sstable.C_none "none" @ one Sstable.C_lz "lz"

(* ---------------- gates and report --------------------------------- *)

let find_row rows ~compression ~arm =
  List.find (fun r -> r.compression = compression && r.arm = arm) rows

let run () =
  banner "RP" "zero-copy block read path"
    "decode-once caching + arena cursors cut per-get allocation and latency";
  let rows = block_rows () in
  table
    [ "compression"; "arm"; "ns/op"; "minor words/op" ]
    (List.map (fun r -> [ r.compression; r.arm; f1 r.ns_per_op; f1 r.words_per_op ]) rows);
  print_newline ();
  let db = db_rows () in
  table
    [ "compression"; "cache"; "ns/op"; "minor words/op"; "bytes on disk" ]
    (List.map
       (fun r ->
         [ r.d_compression; r.d_mode; f1 r.d_ns_per_op; f1 r.d_words_per_op; i0 r.d_bytes_on_disk ])
       db);
  let legacy_lz = find_row rows ~compression:"lz" ~arm:"legacy_hot" in
  let new_lz = find_row rows ~compression:"lz" ~arm:"new_hot" in
  let new_none = find_row rows ~compression:"none" ~arm:"new_hot" in
  let words_ratio =
    if new_lz.words_per_op > 0.0 then legacy_lz.words_per_op /. new_lz.words_per_op else infinity
  in
  let hot_words = Float.max new_lz.words_per_op new_none.words_per_op in
  let db_hot = List.find (fun r -> r.d_compression = "none" && r.d_mode = "hot") db in
  let g_words = words_ratio >= 2.0 in
  let g_ns = new_lz.ns_per_op < legacy_lz.ns_per_op in
  let g_ceiling = hot_words <= hot_hit_words_ceiling in
  let g_db = db_hot.d_words_per_op <= db_hot_words_ceiling in
  Printf.printf
    "\ngates: C_lz hot words/op %.1f -> %.1f (%.1fx, need >= 2x): %s\n\
    \       C_lz hot ns/op    %.1f -> %.1f (need faster):        %s\n\
    \       hot-hit words/op  %.1f (ceiling %.1f):               %s\n\
    \       Db.get hot words/op %.1f (ceiling %.1f):             %s\n"
    legacy_lz.words_per_op new_lz.words_per_op words_ratio
    (if g_words then "PASS" else "FAIL")
    legacy_lz.ns_per_op new_lz.ns_per_op
    (if g_ns then "PASS" else "FAIL")
    hot_words hot_hit_words_ceiling
    (if g_ceiling then "PASS" else "FAIL")
    db_hot.d_words_per_op db_hot_words_ceiling
    (if g_db then "PASS" else "FAIL");
  let pass = g_words && g_ns && g_ceiling && g_db in
  let block_json =
    String.concat ",\n"
      (List.map
         (fun r ->
           Printf.sprintf
             "    {\"compression\": \"%s\", \"arm\": \"%s\", \"ns_per_op\": %.1f, \
              \"minor_words_per_op\": %.1f}"
             r.compression r.arm r.ns_per_op r.words_per_op)
         rows)
  in
  let db_json =
    String.concat ",\n"
      (List.map
         (fun r ->
           Printf.sprintf
             "    {\"compression\": \"%s\", \"cache\": \"%s\", \"ns_per_op\": %.1f, \
              \"minor_words_per_op\": %.1f, \"bytes_on_disk\": %d}"
             r.d_compression r.d_mode r.d_ns_per_op r.d_words_per_op r.d_bytes_on_disk)
         db)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"read_path\",\n\
      \  \"entries_per_block\": %d,\n\
      \  \"value_size\": %d,\n\
      \  \"restart_interval\": 16,\n\
      \  \"block_bytes_raw\": %d,\n\
      \  \"block_bytes_lz\": %d,\n\
      \  \"block_point_gets\": [\n%s\n  ],\n\
      \  \"db_point_gets\": [\n%s\n  ],\n\
      \  \"gates\": {\n\
      \    \"hot_hit_words_ceiling\": %.1f,\n\
      \    \"db_hot_words_ceiling\": %.1f,\n\
      \    \"lz_hot_words_improvement\": %.2f,\n\
      \    \"pass\": %b\n\
      \  }\n\
       }\n"
      entries_per_block value_size (String.length raw_block) (String.length frame_lz) block_json
      db_json hot_hit_words_ceiling db_hot_words_ceiling words_ratio pass
  in
  let oc = open_out "BENCH_read_path.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_read_path.json";
  if not pass then begin
    prerr_endline "read-path allocation gate FAILED";
    exit 1
  end
