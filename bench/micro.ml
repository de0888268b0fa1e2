(* Bechamel microbenchmarks: per-operation latency of the core data
   structures (one Test.make per series). Run with --micro. *)

open Bechamel
open Toolkit
module Memtable = Lsm_memtable.Memtable
module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Rng = Lsm_util.Rng

let cmp = Lsm_util.Comparator.bytewise

let keys = Array.init 10_000 (fun i -> Printf.sprintf "user%010d" (i * 7919 mod 100_000))

let memtable_insert kind =
  Test.make ~name:(Printf.sprintf "memtable-insert:%s" (Memtable.kind_name kind))
    (Staged.stage (fun () ->
         let m = Memtable.create ~kind ~cmp () in
         Array.iteri (fun i k -> Memtable.add m (Entry.put ~key:k ~seqno:i "v")) keys))

let memtable_lookup kind =
  let m = Memtable.create ~kind ~cmp () in
  Array.iteri (fun i k -> Memtable.add m (Entry.put ~key:k ~seqno:i "v")) keys;
  let i = ref 0 in
  Test.make ~name:(Printf.sprintf "memtable-get:%s" (Memtable.kind_name kind))
    (Staged.stage (fun () ->
         incr i;
         ignore (Memtable.find m keys.(!i mod Array.length keys))))

let bloom_query =
  let f = Lsm_filter.Bloom.create ~bits_per_key:10.0 ~expected:10_000 in
  Array.iter (Lsm_filter.Bloom.add f) keys;
  let i = ref 0 in
  Test.make ~name:"bloom-query"
    (Staged.stage (fun () ->
         incr i;
         ignore (Lsm_filter.Bloom.mem f keys.(!i mod Array.length keys))))

let cuckoo_query =
  let f = Lsm_filter.Cuckoo.create ~expected:10_000 () in
  Array.iter (fun k -> ignore (Lsm_filter.Cuckoo.add f k)) keys;
  let i = ref 0 in
  Test.make ~name:"cuckoo-query"
    (Staged.stage (fun () ->
         incr i;
         ignore (Lsm_filter.Cuckoo.mem f keys.(!i mod Array.length keys))))

let block_decode =
  let b = Lsm_sstable.Block.Builder.create () in
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  Array.iteri (fun i k -> if i < 100 then Lsm_sstable.Block.Builder.add b (Entry.put ~key:k ~seqno:i "value")) sorted;
  let encoded = Lsm_sstable.Block.Builder.finish b in
  Test.make ~name:"block-decode+scan(100)"
    (Staged.stage (fun () ->
         let it = Lsm_sstable.Block.iterator cmp (Lsm_sstable.Block.parse_checked encoded) in
         it.Iter.seek_to_first ();
         while it.Iter.valid () do
           it.Iter.next ()
         done))

let crc32c_4k =
  let block = String.init 4096 (fun i -> Char.chr (i * 31 land 0xff)) in
  Test.make ~name:"crc32c-4KiB"
    (Staged.stage (fun () -> ignore (Lsm_util.Crc32c.string block)))

let merge_step =
  let mk off =
    Iter.of_sorted_array cmp
      (Array.init 1000 (fun i -> Entry.put ~key:(Printf.sprintf "k%08d" ((i * 4) + off)) ~seqno:i "v"))
  in
  Test.make ~name:"merge-4way-drain(4000)"
    (Staged.stage (fun () ->
         let it = Iter.merge cmp [ mk 0; mk 1; mk 2; mk 3 ] in
         it.Iter.seek_to_first ();
         while it.Iter.valid () do
           it.Iter.next ()
         done))

let zipf_next =
  let z = Lsm_util.Zipf.create 1_000_000 in
  let rng = Rng.create 1 in
  Test.make ~name:"zipf-next" (Staged.stage (fun () -> ignore (Lsm_util.Zipf.next_scrambled z rng)))

let tests =
  List.map memtable_insert Memtable.all_kinds
  @ List.map memtable_lookup Memtable.all_kinds
  @ [ bloom_query; cuckoo_query; block_decode; crc32c_4k; merge_step; zipf_next ]

let run () =
  print_endline "\n==== microbenchmarks (Bechamel, monotonic clock, ns/run) ====\n";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  let grouped = Test.make_grouped ~name:"lsm" ~fmt:"%s:%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure per_test ->
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) per_test [] in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> Printf.printf "%-44s %14.1f\n" name est
          | Some [] | None -> Printf.printf "%-44s   (no estimate)\n" name)
        (List.sort (fun (a, _) (b, _) -> String.compare a b) rows))
    merged;
  flush stdout
