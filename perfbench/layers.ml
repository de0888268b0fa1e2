(* Per-layer attribution: engine counters snapshotted after a run, and a
   probe battery that times calls into each layer's public functions on
   the workload's own keys (memtable, sstable, block, Db, RESP), each
   call inside a span. *)

open Meter
module Db = Lsm_core.Db
module Stats = Lsm_core.Stats
module Version = Lsm_core.Version
module Io_stats = Lsm_storage.Io_stats
module Device = Lsm_storage.Device
module Block_cache = Lsm_storage.Block_cache
module Histogram = Lsm_util.Histogram
module Comparator = Lsm_util.Comparator
module Sstable = Lsm_sstable.Sstable
module Block = Lsm_sstable.Block
module Table_cache = Lsm_sstable.Table_cache
module Table_meta = Lsm_sstable.Table_meta
module Memtable = Lsm_memtable.Memtable
module Entry = Lsm_record.Entry
module Resp = Lsm_server.Resp
module Model = Lsm_cost.Model

let cmp = Comparator.bytewise
let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let table_cache_counts dbs =
  ( sum (fun db -> Table_cache.total_opens (Db.table_cache db)) dbs,
    sum (fun db -> Table_cache.evictions (Db.table_cache db)) dbs )

(* Counter metrics of every engine layer, summed over [dbs] (one db for
   the engine workloads, the shards for the server replay). Counters
   were zeroed at set-up, except the table cache's: [tc0] is its
   snapshot from then. [point_pages] is device pages read by point gets
   alone, when the caller separated them from scans. *)
let counters ?point_pages ~tc0 dbs =
  let st = List.map Db.stats dbs in
  let io = List.map (fun db -> Device.stats (Db.device db)) dbs in
  let gets = sum (fun s -> s.Stats.user_gets) st in
  let pages =
    match point_pages with
    | Some p -> p
    | None -> sum (Io_stats.pages_read ~cls:Io_stats.C_user_read) io
  in
  let bc = List.map Db.block_cache dbs in
  let hits = sum Block_cache.hits bc and misses = sum Block_cache.misses bc in
  let written cls = float_of_int (sum (Io_stats.bytes_written ~cls) io) in
  let opens, evictions = table_cache_counts dbs in
  let neg = sum (fun s -> s.Stats.filter_negatives) st in
  let fp = sum (fun s -> s.Stats.filter_false_positives) st in
  let merged f =
    let h = Histogram.create () in
    List.iter (fun s -> Histogram.merge ~into:h (f s)) st;
    h
  in
  set "device.user_read_pages_per_get" "pages" (ratio pages gets);
  set "block_cache.hit_rate" "ratio" (ratio hits (hits + misses));
  set "block_cache.evictions" "count" (float_of_int (sum Block_cache.evictions bc));
  set "device.wal_bytes" "B" (written Io_stats.C_user_write);
  set "device.flush_bytes" "B" (written Io_stats.C_flush);
  set "device.compaction_write_bytes" "B" (written Io_stats.C_compaction_write);
  set "table_cache.opens" "count" (float_of_int (opens - fst tc0));
  set "table_cache.evictions" "count" (float_of_int (evictions - snd tc0));
  set "filter.negatives_per_get" "ratio" (ratio neg gets);
  set "filter.false_positive_rate" "ratio" (ratio fp (fp + neg));
  set "db.runs_probed_per_get" "ratio" (ratio (sum (fun s -> s.Stats.runs_probed) st) gets);
  set "compaction.count" "count" (float_of_int (sum (fun s -> s.Stats.compactions) st));
  set "compaction.bytes_rewritten" "B"
    (float_of_int (sum (fun s -> s.Stats.compaction_bytes_written) st));
  set "compaction.busy_s" "s"
    (float_of_int (sum (fun s -> s.Stats.compaction_wall_ns) st) /. 1e9);
  set "flush.count" "count" (float_of_int (sum (fun s -> s.Stats.flushes) st));
  set "stall.count" "count" (float_of_int (sum (fun s -> s.Stats.write_stalls) st));
  set "stall.burst_bytes_p99" "B"
    (float_of_int (Histogram.percentile (merged (fun s -> s.Stats.stall_burst_bytes)) 99.0))

(* The background scheduler lane's counters over [dbs], which ran for
   [wall_ns]: busy fraction is worker-slot busy time over slot time. *)
let sched_counters ~wall_ns dbs =
  let st = List.map Db.stats dbs in
  let h = Histogram.create () in
  List.iter (fun s -> Histogram.merge ~into:h s.Stats.sched_queue_depth) st;
  let slots = sum (fun s -> Array.length s.Stats.sched_workers) st in
  let busy =
    sum (fun s -> Array.fold_left (fun a w -> a + w.Stats.w_busy_ns) 0 s.Stats.sched_workers) st
  in
  set "sched.queue_depth_p99" "count" (float_of_int (Histogram.percentile h 99.0));
  set "sched.worker_busy_frac" "ratio"
    (if slots = 0 then 0.0 else float_of_int busy /. (float_of_int wall_ns *. float_of_int slots));
  set "sched.write_slowdowns" "count" (float_of_int (sum (fun s -> s.Stats.write_slowdowns) st));
  set "sched.write_stops" "count" (float_of_int (sum (fun s -> s.Stats.write_stops) st))

(* lsm_cost: measured over Model-predicted, for point-read pages and
   write-amp, under a leveled design with the db's buffer and 10-bit
   filters. [live] is the number of distinct live keys. *)
let cost_ratios ~buffer ~live ~entry_bytes ~write_amp dbs =
  let st = List.map Db.stats dbs in
  let gets = sum (fun s -> s.Stats.user_gets) st in
  let found = sum (fun s -> s.Stats.gets_found) st in
  let io = List.map (fun db -> Device.stats (Db.device db)) dbs in
  let pages = sum (Io_stats.pages_read ~cls:Io_stats.C_user_read) io in
  let shards = List.length dbs in
  let d =
    { Model.layout = `Leveling; size_ratio = 10; buffer_bytes = buffer; filter_bits_per_key = 10.0 }
  in
  let w =
    { Model.entries = max 1 (live / shards); entry_bytes; page_bytes = 4096; f_insert = 0.0;
      f_point_lookup_hit = ratio found gets; f_point_lookup_miss = 1.0 -. ratio found gets;
      f_short_scan = 0.0; f_long_scan = 0.0; long_scan_pages = 0.0 }
  in
  let predicted_read =
    (w.f_point_lookup_hit *. Model.point_lookup_hit_cost d w)
    +. (w.f_point_lookup_miss *. Model.point_lookup_miss_cost d w)
  in
  let predicted_wa = Model.write_cost d w *. float_of_int (max 1 (4096 / max 1 entry_bytes)) in
  set "cost.read_io_ratio" "ratio"
    (if predicted_read <= 0.0 then 0.0 else ratio pages gets /. predicted_read);
  set "cost.write_amp_ratio" "ratio" (if predicted_wa <= 0.0 then 0.0 else write_amp /. predicted_wa)

(* The tables a point get of [key] probes below the memtables, newest
   first: every table whose key range holds the key and whose filter
   admits it. [Db.get] stops at the first that has a version. *)
let probe_order db key =
  let v = Db.version db in
  List.init Version.max_levels (Version.level_runs v)
  |> List.concat_map (List.concat_map (fun (r : Version.run) -> r.Version.files))
  |> List.filter (fun (f : Table_meta.t) ->
         cmp.Comparator.compare f.Table_meta.min_key key <= 0
         && cmp.Comparator.compare key f.Table_meta.max_key <= 0)
  |> List.map (fun (f : Table_meta.t) -> Table_cache.get (Db.table_cache db) f.Table_meta.file_name)
  |> List.filter (fun reader -> Sstable.may_contain_key reader key)

let take n a = Array.sub a 0 (min n (Array.length a))

(* The probe battery on [kvs] (the workload's own keys and values, in
   stream order); [db_of_key] routes a key to the engine holding it. *)
let probe ~db_of_key (kvs : (string * string) array) =
  Trace.on := true;
  let r () = Trace.new_request () in
  (* lsm_memtable *)
  let m = Memtable.create ~cmp () in
  Array.iteri
    (fun i (k, v) ->
      Trace.timed ~req:(r ()) "memtable.add" (fun () ->
          Memtable.add m (Entry.put ~key:k ~seqno:(i + 1) v)))
    kvs;
  Array.iter
    (fun (k, _) -> Trace.timed ~req:(r ()) "memtable.find" (fun () -> ignore (Memtable.find m k)))
    kvs;
  (* lsm_sstable: a get on the first table holding the key, then the
     block search alone on the block that get just cached *)
  Array.iter
    (fun (k, _) ->
      let db = db_of_key k in
      match probe_order db k with
      | [] -> ()
      | reader :: _ -> (
        Trace.timed ~req:(r ()) "sstable.get" (fun () ->
            ignore (Sstable.get reader ~cls:Io_stats.C_misc k));
        let idx = Sstable.index_entries reader in
        let lo = ref 0 and hi = ref (Array.length idx) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cmp.Comparator.compare idx.(mid).Sstable.fence k < 0 then lo := mid + 1
          else hi := mid
        done;
        if !lo < Array.length idx then
          match
            Block_cache.find (Db.block_cache db) ~file:(Sstable.name reader)
              ~off:idx.(!lo).Sstable.off
          with
          | Some p ->
            Trace.timed ~req:(r ()) "block.find" (fun () -> ignore (Block.find cmp p k))
          | None -> ()))
    (take 5000 kvs);
  (* full-table iteration over up to four tables of the deepest level *)
  let iter_ns = ref 0 and iter_entries = ref 0 in
  let db0 = db_of_key (fst kvs.(0)) in
  let v = Db.version db0 in
  let deepest = Version.last_level v in
  List.iteri
    (fun i (f : Table_meta.t) ->
      if i < 4 then begin
        let reader = Table_cache.get (Db.table_cache db0) f.Table_meta.file_name in
        let t0 = now_ns () in
        let it = Sstable.iterator reader ~cls:Io_stats.C_misc ~use_cache:false () in
        it.Lsm_record.Iter.seek_to_first ();
        while it.Lsm_record.Iter.valid () do
          incr iter_entries;
          it.Lsm_record.Iter.next ()
        done;
        let t1 = now_ns () in
        ignore (Trace.record ~req:(r ()) "sstable.iter" t0 t1);
        iter_ns := !iter_ns + (t1 - t0)
      end)
    (List.concat_map (fun (run : Version.run) -> run.Version.files) (Version.level_runs v deepest));
  set "sstable.iter_ns_per_entry" "ns" (ratio !iter_ns !iter_entries);
  (* lsm_core.Db: each get followed by a replay of the sstable probes it
     made (counted by [runs_probed]), so get minus its probes is Db's
     own cost *)
  Array.iter
    (fun (k, _) ->
      let db = db_of_key k in
      let req = r () in
      let rp0 = (Db.stats db).Stats.runs_probed in
      let w0 = words () in
      let id = Trace.open_ ~req "probe.db.get" in
      ignore (Db.get db k);
      Trace.close ~words:(int_of_float (words () -. w0)) id;
      (* replay exactly the sstable probes the get made *)
      List.iteri
        (fun i reader ->
          if i < (Db.stats db).Stats.runs_probed - rp0 then
            Trace.timed ~parent:id ~req "probe.sstable.get" (fun () ->
                ignore (Sstable.get reader ~cls:Io_stats.C_misc k)))
        (probe_order db k))
    (take 5000 kvs);
  Array.iter
    (fun (k, _) ->
      Trace.timed ~req:(r ()) "probe.db.scan" (fun () ->
          ignore (Db.scan (db_of_key k) ~limit:16 ~lo:k ~hi:None ())))
    (take 1000 kvs);
  Trace.on := false

(* lsm_server's codec on the workload's requests and replies. *)
let resp_probe (frames : string list list) (replies : Resp.reply list) =
  Trace.on := true;
  List.iter
    (fun args ->
      let b = Bytes.of_string (Resp.encode_command args) in
      Trace.timed ~req:(Trace.new_request ()) "resp.parse" (fun () ->
          ignore (Resp.parse_command b ~pos:0 ~len:(Bytes.length b))))
    frames;
  List.iter
    (fun reply ->
      Trace.timed ~req:(Trace.new_request ()) "resp.encode" (fun () ->
          ignore (Resp.encode_reply reply)))
    replies;
  Trace.on := false

(* Per-layer timing metrics, from the spans. Times are medians over the
   spans of one name; allocation is the mean. [fallback] names the probe
   spans used when the run itself made no such call. *)
let span_metrics () =
  let agg = Trace.aggregate () in
  let find names = List.find_map (fun n -> Hashtbl.find_opt agg n) names in
  let time ?(self = false) metric names =
    match find names with
    | Some a -> set metric "ns" (float_of_int (Samples.percentile (if self then a.Trace.self else a.Trace.dur) 50.0))
    | None -> set metric "ns" 0.0
  in
  let alloc ?(self = false) metric names =
    match find names with
    | Some a -> set metric "words" (Samples.mean (if self then a.Trace.self_words else a.Trace.words))
    | None -> set metric "words" 0.0
  in
  time "memtable.add_ns" [ "memtable.add" ];
  time "memtable.find_ns" [ "memtable.find" ];
  time "block.find_ns" [ "block.find" ];
  alloc "block.find_words" [ "block.find" ];
  time "sstable.get_ns" [ "sstable.get" ];
  alloc "sstable.get_words" [ "sstable.get" ];
  time "db.get_ns" [ "db.get"; "probe.db.get" ];
  alloc "db.get_words" [ "db.get"; "probe.db.get" ];
  time "db.put_ns" [ "db.put" ];
  alloc "db.put_words" [ "db.put" ];
  time "db.scan_ns" [ "db.scan"; "probe.db.scan" ];
  time ~self:true "db.get_above_sstable_ns" [ "probe.db.get" ];
  alloc ~self:true "db.get_above_sstable_words" [ "probe.db.get" ];
  time "resp.parse_ns" [ "resp.parse" ];
  time "resp.encode_ns" [ "resp.encode" ];
  time "shard_map.multi_get_ns" [ "shard_map.multi_get" ];
  time "shard_map.apply_grouped_ns" [ "shard_map.apply_grouped" ]
