(* On-disk format golden images: fixed inputs are written through the
   real SST, WAL and MANIFEST writers and the resulting bytes are pinned
   by length and MD5. Any change to a checksum kernel, a block layout or
   a framing rule shows up here as a digest mismatch, so the format can
   only change on purpose (by re-pinning these values). *)

module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator
module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Wal = Lsm_storage.Wal
module Sstable = Lsm_sstable.Sstable
module Table_meta = Lsm_sstable.Table_meta
module Version = Lsm_core.Version
module Manifest = Lsm_core.Manifest

let cmp = Comparator.bytewise

let image dev name =
  let s = Device.read dev ~cls:Io_stats.C_misc name ~off:0 ~len:(Device.size dev name) in
  Printf.sprintf "%d:%s" (String.length s) (Digest.to_hex (Digest.string s))

(* Compressible values of varying length, with a point tombstone every
   seventh key, spread over several 512-byte blocks. *)
let entries =
  List.init 600 (fun i ->
      let key = Printf.sprintf "user%06d" (i * 3) in
      if i mod 7 = 3 then Entry.delete ~key ~seqno:(i + 1)
      else Entry.put ~key ~seqno:(i + 1) (String.make (i mod 41) (Char.chr (97 + (i mod 26)))))

let sst_image ~compression ~ecc =
  let dev = Device.in_memory ~page_size:256 () in
  let config =
    { Sstable.default_build_config with Sstable.block_size = 512; compression; ecc }
  in
  ignore
    (Sstable.build ~config ~cmp ~dev ~cls:Io_stats.C_flush ~name:"t.sst" ~created_at:7
       (Iter.of_sorted_list cmp entries));
  image dev "t.sst"

let test_sst_images () =
  let check name expected ~compression ~ecc =
    Alcotest.(check string) name expected (sst_image ~compression ~ecc)
  in
  check "C_none, ECC off" "16858:14337ec0f77b4557d98b5f836e801627" ~compression:Sstable.C_none ~ecc:None;
  check "C_lz, ECC off" "8883:6783af7ccc1d65c381a05c00a57cfbf5" ~compression:Sstable.C_lz ~ecc:None;
  check "C_none, ECC 4+2" "26009:d7257f7403f65ba9730ff05e908198f6" ~compression:Sstable.C_none ~ecc:(Some (4, 2));
  check "C_lz, ECC 4+2" "13749:362262f6881f916823adfd6be1fb140b" ~compression:Sstable.C_lz ~ecc:(Some (4, 2))

let test_wal_image () =
  let dev = Device.in_memory () in
  let w = Wal.create dev ~name:"wal" in
  Wal.append w [ Entry.put ~key:"a" ~seqno:1 "alpha"; Entry.put ~key:"b" ~seqno:2 "beta" ];
  Wal.append w [ Entry.delete ~key:"a" ~seqno:3 ];
  Wal.append w
    [
      Entry.range_delete ~start_key:"c" ~end_key:"f" ~seqno:4;
      Entry.merge ~key:"g" ~seqno:5 (String.make 300 'm');
    ];
  Wal.close w;
  Alcotest.(check string) "three batches, sealed" "379:458dbaf82c4b7d8e049566eea87e3f1d" (image dev "wal")

let meta id lo hi =
  {
    Table_meta.file_id = id;
    file_name = Table_meta.file_name_of_id id;
    size = 4096 * id;
    entries = 100 * id;
    point_tombstones = id;
    range_tombstones = 0;
    min_key = lo;
    max_key = hi;
    min_seqno = id;
    max_seqno = 10 * id;
    created_at = id;
    data_bytes = 4000 * id;
    ecc = None;
  }

let test_manifest_image () =
  let dev = Device.in_memory () in
  let m = Manifest.create dev in
  Manifest.log_edit m
    { Version.added = [ (0, 1, meta 1 "a" "m"); (0, 2, meta 2 "b" "z") ]; removed = []; seqno_watermark = 20 };
  Manifest.log_edit m
    { Version.added = [ (1, 3, meta 3 "a" "z") ]; removed = [ 1; 2 ]; seqno_watermark = 30 };
  Manifest.close m;
  Alcotest.(check string) "two edits, sealed" "126:8becd827cbfc964240a0b0c87c9cdd6a" (image dev Manifest.file_name)

let suite =
  [
    Alcotest.test_case "golden SST images (compression x ECC)" `Quick test_sst_images;
    Alcotest.test_case "golden WAL image" `Quick test_wal_image;
    Alcotest.test_case "golden MANIFEST image" `Quick test_manifest_image;
  ]
