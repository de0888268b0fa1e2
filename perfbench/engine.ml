(* The two engine workloads, [ingest] and [read_mostly]: one caller
   domain drives [Db] in a closed loop on the in-memory device, and
   every get and scan is checked against a reference model of acked
   writes. *)

open Meter
module Rng = Lsm_util.Rng
module Zipf = Lsm_util.Zipf
module Lsm_error = Lsm_util.Lsm_error
module Config = Lsm_core.Config
module Db = Lsm_core.Db
module Stats = Lsm_core.Stats
module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats

let key_of id = Printf.sprintf "user%012d" id

(* A value names its key and version, padded to [size]: any returned
   value identifies exactly which write produced it. *)
let value_of ~size key ver =
  let base = Printf.sprintf "%s:%010d:" key ver in
  if String.length base >= size then base
  else base ^ String.make (size - String.length base) 'v'

type op = Put of int | Get of int | Scan of int

(* Reference model: the latest acked version of each key id (0 = never
   written). [corrupt_next] deliberately falsifies the first present
   entry it is asked about — the benchmark's own tests use it to show a
   wrong value is reported as a failure. *)
type model = { ver : int array; mutable corrupt_next : bool }

let expect m ~size id =
  if m.corrupt_next && m.ver.(id) > 0 then begin
    m.ver.(id) <- m.ver.(id) + 1_000_000;
    m.corrupt_next <- false
  end;
  let v = m.ver.(id) in
  if v = 0 then None else Some (value_of ~size (key_of id) v)

type spec = {
  name : string;
  config : Config.t;
  key_space : int;  (** ids [0, key_space) *)
  value_size : int;
  scan_len : int;
  next_op : Rng.t -> op;  (** the mix, drawn from the seed's stream *)
  preload : int list;  (** ids written (and fully compacted) during set-up *)
}

(* Both engine workloads pin the backend and worker counts themselves:
   [Config.default] reads LSM_COMPACTION_BACKEND / LSM_COMPACTION_WORKERS
   from the environment, and what is measured must not depend on it. *)
let pinned c =
  { c with Config.compaction_backend = Config.Inline; compaction_workers = 1;
           compaction_parallelism = 1; wal_enabled = true; wal_sync_every_write = false }

(* ingest: 90% put / 10% get, zipfian over 500k keys (72 MB of distinct
   data) against a 64 KiB write buffer, so flush and inline compaction
   run all the time and the tree grows to four levels. *)
let ingest () =
  let key_space = 500_000 in
  let z = Zipf.create ~theta:0.99 key_space in
  {
    name = "ingest";
    config =
      pinned
        { Config.default with write_buffer_size = 64 lsl 10; level1_capacity = 256 lsl 10;
                              target_file_size = 64 lsl 10 };
    key_space;
    value_size = 128;
    scan_len = 16;
    next_op =
      (fun rng ->
        let r = Rng.int rng 100 in
        let id = Zipf.next_scrambled z rng in
        if r < 90 then Put id else Get id);
    preload = [];
  }

(* read_mostly: a fully compacted tree of 50k present keys (even ids,
   ~8 MB of tables) behind a 1 MiB block cache; 60% zipfian gets of
   present keys, 20% gets of absent keys (odd ids, inside every table's
   key range, so only the filters can reject them), 10% 16-key scans,
   10% updates. *)
let read_mostly () =
  let present = 50_000 in
  let z = Zipf.create ~theta:0.99 present in
  let hot rng = 2 * Zipf.next_scrambled z rng in
  {
    name = "read_mostly";
    config =
      pinned
        { Config.default with write_buffer_size = 256 lsl 10; target_file_size = 256 lsl 10;
                              level1_capacity = 1 lsl 20;
                              block_cache_bytes = 1 lsl 20 };
    key_space = 2 * present;
    value_size = 128;
    scan_len = 16;
    next_op =
      (fun rng ->
        let r = Rng.int rng 100 in
        if r < 60 then Get (hot rng)
        else if r < 80 then Get ((2 * Rng.int rng present) + 1)
        else if r < 90 then Scan (hot rng)
        else Put (hot rng));
    preload = List.init present (fun i -> 2 * i);
  }

let spec_of_name = function
  | "ingest" -> Some ingest
  | "read_mostly" -> Some read_mostly
  | _ -> None

type state = { spec : spec; dev : Device.t; db : Db.t; model : model }

(* Set-up: a fresh device and engine, the preload written and fully
   compacted, then every counter zeroed so the run's counters cover the
   run alone. *)
let setup spec =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:spec.config ~dev () in
  let model = { ver = Array.make spec.key_space 0; corrupt_next = false } in
  List.iter
    (fun id ->
      model.ver.(id) <- 1;
      Db.put db ~key:(key_of id) (value_of ~size:spec.value_size (key_of id) 1))
    spec.preload;
  if spec.preload <> [] then Db.major_compact db;
  Stats.clear (Db.stats db);
  Io_stats.clear (Device.stats dev);
  Lsm_storage.Block_cache.reset_stats (Db.block_cache db);
  { spec; dev; db; model }

(* The expected result of a scan: the next [scan_len] written ids from
   [lo] upward, with their model values. *)
let expected_scan st lo =
  let rec go id n acc =
    if n = 0 || id >= st.spec.key_space then List.rev acc
    else
      match expect st.model ~size:st.spec.value_size id with
      | Some v -> go (id + 1) (n - 1) ((key_of id, v) :: acc)
      | None -> go (id + 1) n acc
  in
  go lo st.spec.scan_len []

type result = {
  ops : int;
  failed : int;
  wall_ns : int;
  puts : Samples.t array;  (** latency (ns) per window *)
  gets : Samples.t array;
  scans : Samples.t array;
  win : (int * int) array;  (** (ops, ns) per window *)
  gaps : Samples.t;  (** closed-loop generator lateness: previous op's end to this op's issue *)
  point_pages : int;  (** device pages read by point gets *)
  overhead : float;  (** traced / untraced mean op time - 1 (traced runs) *)
  at_checkpoint : float * float * float * float;
      (** write-amp, space-amp, peak RSS (MB) and device pages per point get
          after [checkpoint] ops, or at the end *)
}

(* Size metrics are read after a fixed number of ops, so they measure the
   same amount of work in every run instead of wherever the clock stopped
   (a faster engine would otherwise grow a bigger tree and look worse).
   Both engine workloads pass it within a few seconds; the pause to read
   them is excluded from every timing. *)
let checkpoint = 150_000

(* The closed loop. Runs until [deadline] or [max_ops], cut into
   [Meter.windows] windows by time (or by op count under [max_ops]).
   With tracing on, alternate 1024-op segments are traced, so traced and
   untraced op times are compared on the same stretch of the run. *)
let run ?(trace = false) st ~rng ~deadline ~max_ops =
  let spec = st.spec and db = st.db in
  let io = Device.stats st.dev in
  let puts = windowed () and gets = windowed () and scans = windowed () in
  let gaps = Samples.create () in
  let win = Array.make windows (0, 0) in
  let failed = ref 0 and ops = ref 0 and scan_pages = ref 0 in
  let seg_ns = [| 0; 0 |] and seg_ops = [| 0; 0 |] in
  let check ok = if not ok then incr failed in
  let at_checkpoint = ref None in
  let n_gets () = Array.fold_left (fun a s -> a + Samples.count s) 0 gets in
  let point_pages () = Io_stats.pages_read ~cls:Io_stats.C_user_read io - !scan_pages in
  let sizes () =
    ( Db.write_amplification db, Db.space_amplification db, Host.peak_rss_mb (),
      float_of_int (point_pages ()) /. float_of_int (max 1 (n_gets ())) )
  in
  let t_start = now_ns () in
  let prev_end = ref t_start and t_paused = ref 0 in
  let window () =
    min (windows - 1)
      (if max_ops < max_int then !ops * windows / max_ops
       else (!prev_end - !t_paused - t_start) * windows / max 1 (deadline - t_start))
  in
  while !ops < max_ops && !prev_end - !t_paused < deadline do
    let w = window () in
    let traced = trace && (!ops lsr 10) land 1 = 1 in
    Trace.on := traced;
    let op = spec.next_op rng in
    let req = if traced then Trace.new_request () else 0 in
    let root = if traced then Trace.open_ ~req "op" else -1 in
    let call name f =
      let w0 = if traced then words () else 0.0 in
      let t0 = now_ns () in
      Samples.add gaps (t0 - !prev_end);
      let r = try Ok (f ()) with Lsm_error.Error e -> Error e in
      let t1 = now_ns () in
      if traced then
        ignore (Trace.record ~parent:root ~words:(int_of_float (words () -. w0)) ~req name t0 t1);
      (r, t1 - t0)
    in
    (match op with
     | Put id ->
       let key = key_of id in
       let ver = st.model.ver.(id) + 1 in
       let v = value_of ~size:spec.value_size key ver in
       let r, dt = call "db.put" (fun () -> Db.put db ~key v) in
       Samples.add puts.(w) dt;
       (match r with Ok () -> st.model.ver.(id) <- ver | Error _ -> incr failed)
     | Get id ->
       let r, dt = call "db.get" (fun () -> Db.get db (key_of id)) in
       Samples.add gets.(w) dt;
       (match r with
        | Ok got -> check (got = expect st.model ~size:spec.value_size id)
        | Error _ -> incr failed)
     | Scan lo ->
       let p0 = Io_stats.pages_read ~cls:Io_stats.C_user_read io in
       let r, dt =
         call "db.scan" (fun () -> Db.scan db ~limit:spec.scan_len ~lo:(key_of lo) ~hi:None ())
       in
       scan_pages := !scan_pages + Io_stats.pages_read ~cls:Io_stats.C_user_read io - p0;
       Samples.add scans.(w) dt;
       (match r with Ok got -> check (got = expected_scan st lo) | Error _ -> incr failed));
    let t_end = now_ns () in
    if traced then Trace.close root;
    let k = if traced then 1 else 0 in
    seg_ns.(k) <- seg_ns.(k) + (t_end - !prev_end);
    seg_ops.(k) <- seg_ops.(k) + 1;
    let o, ns = win.(w) in
    win.(w) <- (o + 1, ns + (t_end - !prev_end));
    prev_end := t_end;
    incr ops;
    if !ops = checkpoint then begin
      at_checkpoint := Some (sizes ());
      let paused = now_ns () - t_end in
      prev_end := t_end + paused;
      t_paused := !t_paused + paused
    end
  done;
  Trace.on := false;
  let per k = float_of_int seg_ns.(k) /. float_of_int (max 1 seg_ops.(k)) in
  {
    ops = !ops;
    failed = !failed;
    wall_ns = !prev_end - !t_paused - t_start;
    puts; gets; scans; gaps; win;
    point_pages = point_pages ();
    overhead = (if trace && seg_ops.(0) > 0 && seg_ops.(1) > 0 then (per 1 /. per 0) -. 1.0 else 0.0);
    at_checkpoint = (match !at_checkpoint with Some x -> x | None -> sizes ());
  }
