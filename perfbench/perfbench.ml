(* perfbench: one run of one workload of the repository's benchmark.

     perfbench --workload ingest|read_mostly|serve --seed N --seconds S --trace 0|1
               [--ops N] [--corrupt-model] [--server-exe PATH]

   Prints a human-readable report, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"} holding every metric it
   measured; run.py selects the end-to-end (--trace 0) or per-layer
   (--trace 1) ones declared in BENCHMARK.json. [--ops] replaces the
   time bound by a fixed op count (engine workloads; the tests use it to
   compare count metrics across runs). [--corrupt-model] falsifies one
   model entry, so the run must report a failure. *)

open Meter
module Rng = Lsm_util.Rng
module Db = Lsm_core.Db
module Shard_map = Lsm_server.Shard_map
module Resp = Lsm_server.Resp

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let ops = ref 0
let corrupt = ref false

let time_s f =
  let t0 = now_ns () in
  let v = f () in
  (float_of_int (now_ns () - t0) /. 1e9, v)

(* Front-door probes of the traced run on [reqs]: the in-process replay
   (whose shards give the scheduler counters and, with [engine_counters],
   every engine-layer counter), then the socket probe. Returns the probe
   server's STATS and the replay's map, still open. *)
let front_door ?(engine_counters = false) reqs =
  let durs, map, root, wall = Front.replay reqs in
  let dbs = List.init (Shard_map.count map) (Shard_map.db map) in
  if engine_counters then Layers.counters ~tc0:(0, 0) dbs;
  Layers.sched_counters ~wall_ns:wall dbs;
  Shard_map.quiesce_all map;
  let n = min 4000 (Array.length reqs) in
  let stats = Front.socket_probe (Array.sub reqs 0 n) (Array.sub durs 0 n) in
  (stats, map, root, dbs)

let close_front (map, root) =
  Shard_map.close_all map;
  Host.rm_rf root

let engine_main spec_f =
  (* set up five times; the median is setup_s, the last one is used *)
  let last = ref None in
  let times =
    List.init 5 (fun _ ->
        let dt, st = time_s (fun () -> Engine.setup (spec_f ())) in
        last := Some st;
        dt)
  in
  set "setup_s" "s" (median_float times) ~note:"median of 5";
  let st = Option.get !last in
  let c = st.Engine.spec.Engine.config in
  Printf.printf "config: %s backend=%s workers=%d parallelism=%d wal=%b sync_every_write=%b\n"
    (Lsm_core.Config.describe c)
    (match c.Lsm_core.Config.compaction_backend with
     | Lsm_core.Config.Inline -> "inline"
     | Lsm_core.Config.Background -> "background")
    c.Lsm_core.Config.compaction_workers c.Lsm_core.Config.compaction_parallelism
    c.Lsm_core.Config.wal_enabled c.Lsm_core.Config.wal_sync_every_write;
  (* the earlier set-ups are garbage now: collect it before the run, so
     the run does not pay for sweeping it *)
  Gc.compact ();
  let spec = st.Engine.spec and db = st.Engine.db in
  st.Engine.model.Engine.corrupt_next <- !corrupt;
  let tc0 = Layers.table_cache_counts [ db ] in
  let deadline, max_ops =
    if !ops > 0 then (max_int, !ops)
    else (now_ns () + int_of_float (!seconds *. 1e9), max_int)
  in
  let r = Engine.run ~trace:(!trace = 1) st ~rng:(Rng.create !seed) ~deadline ~max_ops in
  let wall_s = float_of_int r.Engine.wall_ns /. 1e9 in
  set "throughput_ops_s" "ops/s" (rate_w r.Engine.win)
    ~note:(Printf.sprintf "%d ops in %.2f s, IQM of %d windows" r.Engine.ops wall_s windows);
  latency_w "write" r.Engine.puts;
  latency_w "read" r.Engine.gets;
  latency_w "scan" r.Engine.scans;
  let write_amp, space_amp, rss, pages_per_get = r.Engine.at_checkpoint in
  let first = Printf.sprintf "after the first %d ops" Engine.checkpoint in
  set "write_amp" "ratio" write_amp ~note:("(WAL + flush + compaction bytes) / user bytes, " ^ first);
  set "space_amp" "ratio" space_amp ~note:("(tables + buffers) / live logical bytes, " ^ first);
  set "read_pages_per_op" "pages" pages_per_get
    ~note:("device pages read by point gets / point gets, " ^ first);
  set "peak_rss_mb" "MB" rss ~note:("process VmHWM, set-up included, " ^ first);
  set "gen.late_us_p99" "us" (float_of_int (Samples.percentile r.Engine.gaps 99.0) /. 1e3)
    ~note:"closed loop: previous op's end to this op's issue";
  set "tree.levels" "count" (float_of_int (Lsm_core.Version.last_level (Db.version db)));
  if !trace = 1 then begin
    Layers.counters ~point_pages:r.Engine.point_pages ~tc0 [ db ];
    let live = Array.fold_left (fun a v -> if v > 0 then a + 1 else a) 0 st.Engine.model.Engine.ver in
    Layers.cost_ratios ~buffer:spec.Engine.config.Lsm_core.Config.write_buffer_size ~live
      ~entry_bytes:(16 + spec.Engine.value_size) ~write_amp [ db ];
    (* the workload's own first ops, regenerated from the seed *)
    let rng = Rng.create !seed in
    let stream = Array.init 100_000 (fun _ -> spec.Engine.next_op rng) in
    let head = Array.sub stream 0 16384 in
    let id_of = function Engine.Put i | Engine.Get i | Engine.Scan i -> i in
    let kv id =
      let k = Engine.key_of id in
      (k, Engine.value_of ~size:spec.Engine.value_size k (max 1 st.Engine.model.Engine.ver.(id)))
    in
    Layers.probe ~db_of_key:(fun _ -> db) (Array.map (fun op -> kv (id_of op)) head);
    let frames, replies =
      Array.to_list head
      |> List.filter_map (function
           | Engine.Put id -> let k, v = kv id in Some ([ "PUT"; k; v ], Resp.Simple "OK")
           | Engine.Get id ->
             let k, v = kv id in
             Some ([ "GET"; k ], if st.Engine.model.Engine.ver.(id) > 0 then Resp.Bulk v else Resp.Nil)
           | Engine.Scan _ -> None)
      |> List.split
    in
    Layers.resp_probe frames replies;
    (* the first 100k ops as server requests (runs of 8 writes become one
       MSET, runs of 8 reads one MGET): enough writes for the replay's
       shards to flush and use their lane *)
    let reqs = ref [] and w = ref [] and g = ref [] in
    let emit cmd l = reqs := { Front.tenant = "t0"; args = cmd :: List.rev l } :: !reqs in
    Array.iter
      (function
        | Engine.Put id ->
          let k, v = kv id in
          w := v :: k :: !w;
          if List.length !w = 16 then (emit "MSET" !w; w := [])
        | Engine.Get id ->
          g := fst (kv id) :: !g;
          if List.length !g = 8 then (emit "MGET" !g; g := [])
        | Engine.Scan _ -> ())
      stream;
    let reqs = Array.of_list (List.rev !reqs) in
    let stats, map, root, _ = front_door reqs in
    set "server.commands" "count" (float_of_int (Front.stats_field stats "commands"));
    close_front (map, root);
    set "trace.overhead_frac" "ratio" r.Engine.overhead
  end;
  (r.Engine.ops, r.Engine.failed)

let serve_main () =
  let attempted, failed, torn, stats, recs, replies =
    Serve.run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~corrupt:!corrupt
  in
  set "torn_mgets" "count" (float_of_int torn);
  if !trace = 1 then begin
    let _, map, root, dbs = front_door ~engine_counters:true recs in
    (* the real server's own STATS for its scheduler and command count *)
    set "sched.write_slowdowns" "count" (float_of_int (Front.stats_field stats "slowdowns"));
    set "sched.write_stops" "count" (float_of_int (Front.stats_field stats "stops"));
    set "server.commands" "count" (float_of_int (Front.stats_field stats "commands"));
    let stored = Hashtbl.create 4096 and order = ref [] in
    let note k v =
      if not (Hashtbl.mem stored k) then order := k :: !order;
      if v <> "" || not (Hashtbl.mem stored k) then Hashtbl.replace stored k v
    in
    Array.iter
      (fun r ->
        let enc k = Shard_map.encode_key ~tenant:r.Front.tenant k in
        match r.Front.args with
        | ("PUT" | "MSET") :: kvs ->
          let rec go = function
            | k :: v :: rest -> note (enc k) v; go rest
            | _ -> ()
          in
          go kvs
        | ("GET" | "MGET") :: ks ->
          List.iter (fun k -> note (enc k) "") ks
        | _ -> ())
      recs;
    Layers.cost_ratios ~buffer:(Front.buffer_kib * 1024) ~live:(Hashtbl.length stored)
      ~entry_bytes:(20 + Serve.value_size)
      ~write_amp:(Option.value ~default:0.0 (get "write_amp")) dbs;
    let kvs = List.rev_map (fun k -> (k, Hashtbl.find stored k)) !order |> Array.of_list in
    let route k = Shard_map.db map (Shard_map.shard_of_key map k) in
    Layers.probe ~db_of_key:route kvs;
    Layers.resp_probe (Array.to_list (Array.map (fun r -> r.Front.args) recs)) replies;
    close_front (map, root)
  end;
  (attempted, failed)

let () =
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME ingest | read_mostly | serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--ops", Arg.Set_int ops, "N fixed op count instead of --seconds (engine workloads)");
      ("--corrupt-model", Arg.Set corrupt, " falsify one model entry (self-test)");
      ("--server-exe", Arg.Set_string Front.server_exe, "PATH lsm_server binary") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad a)) "perfbench: one benchmark run";
  (* a server that dies mid-run must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Host.mkdir_p Host.work_dir;
  let nproc = Host.nproc () in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d\n" !workload !seed !seconds !trace;
  Printf.printf "host: nproc=%d recommended_domain_count=%d ocaml=%s serve_offered_rate=%d\n"
    nproc (Domain.recommended_domain_count ()) Sys.ocaml_version Serve.offered_rate;
  let attempted, failed =
    match (!workload, Engine.spec_of_name !workload) with
    | _, Some spec_f -> engine_main spec_f
    | "serve", None ->
      Printf.printf
        "config: lsm_server --shards %d --workers %d --buffer-kib %d --fanout 0 (on-disk root), \
         offered rate %d ops/s, depth %d x %d connections\n"
        Front.shards Front.workers Front.buffer_kib Serve.offered_rate Serve.depth Serve.conns_n;
      serve_main ()
    | w, None ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  if !trace = 1 then begin
    Layers.span_metrics ();
    let path = Filename.concat Host.work_dir
        (Printf.sprintf "trace-%s.jsonl" !workload) in
    Trace.write path;
    Printf.printf "spans: %d written to %s\n" (Trace.count ()) path
  end;
  set "ops_attempted" "count" (float_of_int attempted);
  set "ops_failed" "count" (float_of_int failed);
  print_report ();
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (max 1 attempted) failed (metrics_json ())
