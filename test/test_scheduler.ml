(* Tests for the background flush/compaction scheduler: the job lane and
   its failure latch, version pinning (readers never lose a table to a
   concurrent compaction), write backpressure, and — the load-bearing
   one — logical equivalence: a database run with the Background backend
   must hold exactly the same entries as one run Inline. *)

module Device = Lsm_storage.Device
module Entry = Lsm_record.Entry
module Db = Lsm_core.Db
module Config = Lsm_core.Config
module Stats = Lsm_core.Stats
module Scheduler = Lsm_core.Scheduler
module Version = Lsm_core.Version
module Policy = Lsm_compaction.Policy
module Rng = Lsm_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- scheduler primitive ---------- *)

let test_scheduler_runs_jobs () =
  let s = Scheduler.create () in
  let hits = Atomic.make 0 in
  for _ = 1 to 25 do
    Scheduler.enqueue s (fun () -> Atomic.incr hits)
  done;
  Scheduler.quiesce s;
  check_int "all jobs ran" 25 (Atomic.get hits);
  check_int "drained" 0 (Scheduler.pending s)

let test_scheduler_serializes () =
  (* Single lane: jobs never overlap, and run in enqueue order. *)
  let s = Scheduler.create () in
  let trace = ref [] in
  let running = Atomic.make 0 in
  let overlapped = Atomic.make false in
  for i = 1 to 10 do
    Scheduler.enqueue s (fun () ->
        if Atomic.fetch_and_add running 1 <> 0 then Atomic.set overlapped true;
        trace := i :: !trace;
        ignore (Atomic.fetch_and_add running (-1)))
  done;
  Scheduler.quiesce s;
  check_bool "no two jobs overlapped" false (Atomic.get overlapped);
  Alcotest.(check (list int)) "enqueue order" (List.init 10 (fun i -> i + 1)) (List.rev !trace)

exception Boom

let test_scheduler_failure_latch () =
  let s = Scheduler.create () in
  Scheduler.enqueue s (fun () -> raise Boom);
  Alcotest.check_raises "quiesce re-raises" Boom (fun () -> Scheduler.quiesce s);
  (* Delivered exactly once: the re-raise clears the latch... *)
  Scheduler.quiesce s;
  (* ...and the scheduler keeps accepting work. *)
  let ran = ref false in
  Scheduler.enqueue s (fun () -> ran := true);
  Scheduler.quiesce s;
  check_bool "subsequent jobs run" true !ran;
  (* [shutdown] drains silently even with a fresh failure parked (the
     close path must succeed after a planned device crash). *)
  Scheduler.enqueue s (fun () -> raise Boom);
  Scheduler.shutdown s;
  Scheduler.quiesce s

let test_scheduler_wait_until () =
  let s = Scheduler.create () in
  for _ = 1 to 8 do
    Scheduler.enqueue s (fun () -> ignore (Sys.opaque_identity (String.make 64 'x')))
  done;
  (* Exits when the predicate holds; at the latest when the lane drains. *)
  Scheduler.wait_until s (fun ~pending ~unapplied_bytes:_ -> pending <= 2);
  check_bool "below threshold" true (Scheduler.pending s <= 2);
  Scheduler.wait_until s (fun ~pending ~unapplied_bytes:_ -> pending = 0);
  check_int "drained" 0 (Scheduler.pending s)

(* ---------- multi-worker dispatch ---------- *)

(* Tickets whose keys touch levels >= 2 apart may overlap in time; the
   first spins until it observes the second running (bounded by a
   timeout so a regression fails rather than hangs). *)
let test_nonconflicting_tickets_overlap () =
  let s = Scheduler.create ~workers:2 () in
  let running = Atomic.make 0 in
  let max_running = Atomic.make 0 in
  let job () =
    let r = 1 + Atomic.fetch_and_add running 1 in
    if r > Atomic.get max_running then Atomic.set max_running r;
    let t0 = Unix.gettimeofday () in
    while Atomic.get running < 2 && Unix.gettimeofday () -. t0 < 5. do
      Domain.cpu_relax ()
    done;
    if Atomic.get running > Atomic.get max_running then
      Atomic.set max_running (Atomic.get running);
    ignore (Atomic.fetch_and_add running (-1));
    fun () -> ()
  in
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 0; lo = "a"; hi = "m" })
    ~input_bytes:0 ~execute:job;
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 3; lo = "a"; hi = "m" })
    ~input_bytes:0 ~execute:job;
  Scheduler.quiesce s;
  check_int "distant levels ran concurrently" 2 (Atomic.get max_running);
  Scheduler.shutdown s

(* Same level (or adjacent with overlapping ranges): never concurrent,
   and edits still commit in enqueue order. *)
let test_conflicting_tickets_serialize () =
  let s = Scheduler.create ~workers:4 () in
  let inside = Atomic.make false in
  let overlapped = Atomic.make false in
  let commits = ref [] in
  let job i () =
    if Atomic.get inside then Atomic.set overlapped true;
    Atomic.set inside true;
    Unix.sleepf 0.01;
    Atomic.set inside false;
    fun () -> commits := i :: !commits
  in
  for i = 1 to 4 do
    Scheduler.submit s
      ~key:(Scheduler.Compact { level = 2; lo = "a"; hi = "z" })
      ~input_bytes:0 ~execute:(job i)
  done;
  (* Adjacent level, overlapping range: also serialized against level 2. *)
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 3; lo = "m"; hi = "q" })
    ~input_bytes:0 ~execute:(job 5);
  Scheduler.quiesce s;
  check_bool "conflicting tickets never overlapped" false (Atomic.get overlapped);
  Alcotest.(check (list int)) "edits committed in enqueue order" [ 1; 2; 3; 4; 5 ]
    (List.rev !commits);
  Scheduler.shutdown s

(* A parked out-of-order edit whose predecessor fails must be discarded:
   the failed ticket's successors were planned against a version that
   will never exist. *)
let test_failed_predecessor_discards_parked () =
  let s = Scheduler.create ~workers:2 () in
  let gate = Atomic.make false in
  let parked = Atomic.make false in
  let committed = Atomic.make false in
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 0; lo = "a"; hi = "b" })
    ~input_bytes:0
    ~execute:(fun () ->
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        raise Boom);
  (* Distant level: runs concurrently, finishes first, parks its edit. *)
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 4; lo = "a"; hi = "b" })
    ~input_bytes:0
    ~execute:(fun () ->
        Atomic.set parked true;
        fun () -> Atomic.set committed true);
  while not (Atomic.get parked) do
    Domain.cpu_relax ()
  done;
  Atomic.set gate true;
  Alcotest.check_raises "predecessor failure re-raised" Boom (fun () -> Scheduler.quiesce s);
  check_bool "parked successor edit discarded, not committed" false (Atomic.get committed);
  check_int "queue drained" 0 (Scheduler.pending s);
  (* The lane stays usable after the discard. *)
  let ran = ref false in
  Scheduler.enqueue s (fun () -> ran := true);
  Scheduler.quiesce s;
  check_bool "lane usable after discard" true !ran;
  Scheduler.shutdown s

(* [shutdown] with edits parked behind a failed predecessor must drain
   silently rather than deadlock waiting for commits that cannot run. *)
let test_shutdown_with_parked_edits () =
  let s = Scheduler.create ~workers:2 () in
  let gate = Atomic.make false in
  let parked = Atomic.make false in
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 0; lo = "a"; hi = "b" })
    ~input_bytes:0
    ~execute:(fun () ->
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        raise Boom);
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 4; lo = "a"; hi = "b" })
    ~input_bytes:4096
    ~execute:(fun () ->
        Atomic.set parked true;
        fun () -> ());
  while not (Atomic.get parked) do
    Domain.cpu_relax ()
  done;
  Atomic.set gate true;
  Scheduler.shutdown s;
  check_int "drained after shutdown" 0 (Scheduler.pending s);
  check_int "no unapplied bytes left" 0 (Scheduler.unapplied_bytes s)

(* Width 0 (the engine's inline mode): nothing runs until the caller
   drains, and then every ticket executes and commits on the caller's
   own domain; hook submissions front-insert exactly as on a worker
   lane; a hook cascade far longer than any compaction cascade completes;
   and the failure latch discards what was queued behind a failing
   ticket. *)
let test_scheduler_width_zero () =
  let commit_order workers =
    let s = Scheduler.create ~workers () in
    let trace = ref [] and domains = ref [] in
    let job name () =
      domains := Domain.self () :: !domains;
      fun () -> trace := name :: !trace
    in
    let submit name = Scheduler.submit s ~key:Scheduler.Maintenance ~input_bytes:0 ~execute:(job name) in
    (* Each root's commit chains two follow-ups, picked by the hook. *)
    Scheduler.set_on_commit s (fun () ->
        match !trace with
        | last :: _ when String.length last < 3 -> submit (last ^ "'")
        | _ -> ());
    List.iter submit [ "a"; "b"; "c" ];
    if workers = 0 then begin
      check_int "width 0: queued, not run" 3 (Scheduler.pending s);
      check_int "width 0: nothing executed" 0 (List.length !domains)
    end;
    Scheduler.quiesce s;
    if workers = 0 then
      check_bool "width 0: every ticket ran on the caller" true
        (List.for_all (fun d -> d = Domain.self ()) !domains);
    List.rev !trace
  in
  let expected = [ "a"; "a'"; "a''"; "b"; "b'"; "b''"; "c"; "c'"; "c''" ] in
  Alcotest.(check (list string)) "width 0 commit order" expected (commit_order 0);
  Alcotest.(check (list string)) "width 1 commit order" expected (commit_order 1);
  let s = Scheduler.create ~workers:0 () in
  let steps = ref 0 in
  let step () = Scheduler.submit s ~key:Scheduler.Flush ~input_bytes:0 ~execute:(fun () () -> incr steps) in
  Scheduler.set_on_commit s (fun () -> if !steps < 20_000 then step ());
  step ();
  Scheduler.quiesce s;
  check_int "a 20k-step hook cascade drains" 20_000 !steps;
  Scheduler.set_on_commit s (fun () -> ());
  let ran = ref [] in
  Scheduler.enqueue s (fun () -> ran := "before" :: !ran);
  Scheduler.enqueue s (fun () -> raise Boom);
  Scheduler.enqueue s (fun () -> ran := "behind" :: !ran);
  Alcotest.check_raises "width 0: failure re-raised" Boom (fun () -> Scheduler.quiesce s);
  Alcotest.(check (list string)) "ticket behind the failure discarded" [ "before" ] !ran;
  check_int "width 0: drained" 0 (Scheduler.pending s)

(* ---------- version pinning ---------- *)

let test_version_pins () =
  let reg = Version.Pins.create_registry () in
  let dropped = ref [] in
  (* No reader: deletions run immediately. *)
  Version.Pins.advance reg;
  Version.Pins.defer reg (fun () -> dropped := "a" :: !dropped);
  Alcotest.(check (list string)) "no pin: immediate" [ "a" ] !dropped;
  (* A pinned version blocks deletions deferred after it... *)
  let p = Version.Pins.pin reg in
  Version.Pins.advance reg;
  Version.Pins.defer reg (fun () -> dropped := "b" :: !dropped);
  check_int "deferred while pinned" 1 (Version.Pins.deferred_count reg);
  Alcotest.(check (list string)) "not yet" [ "a" ] !dropped;
  (* ...and the last unpin releases them. *)
  Version.Pins.unpin p;
  check_int "released" 0 (Version.Pins.deferred_count reg);
  Alcotest.(check (list string)) "ran on unpin" [ "b"; "a" ] !dropped;
  (* A pin taken after the install does not block its deletions. *)
  Version.Pins.advance reg;
  Version.Pins.with_pin reg (fun () ->
      Version.Pins.defer reg (fun () -> dropped := "c" :: !dropped);
      check_int "current-version pin does not block" 0 (Version.Pins.deferred_count reg));
  Alcotest.(check (list string)) "ran inline" [ "c"; "b"; "a" ] !dropped

(* The lock-free reader side under contention: reader domains pin, read
   the published version, and check that its files are still there while
   a writer publishes versions, advances, and defers each predecessor's
   deletion — the same publish-advance-defer order [Db.install_edit] and
   [retire_files] follow. A deletion that ran under a pin older than it
   is a lost table. *)
let test_version_pins_concurrent () =
  let reg = Version.Pins.create_registry () in
  let versions = 3000 in
  let deleted = Array.init (versions + 1) (fun _ -> Atomic.make false) in
  let published = Atomic.make 0 in
  let stop = Atomic.make false in
  let reader () =
    Domain.spawn (fun () ->
        let bad = ref 0 in
        while not (Atomic.get stop) do
          Version.Pins.with_pin reg (fun () ->
              let v = Atomic.get published in
              for _ = 1 to 20 do
                if Atomic.get deleted.(v) then incr bad
              done)
        done;
        !bad)
  in
  let readers = List.init 3 (fun _ -> reader ()) in
  for v = 1 to versions do
    Atomic.set published v;
    Version.Pins.advance reg;
    Version.Pins.defer reg (fun () -> Atomic.set deleted.(v - 1) true)
  done;
  Atomic.set stop true;
  let bad = List.fold_left (fun a d -> a + Domain.join d) 0 readers in
  check_int "no pinned version lost its files" 0 bad;
  Version.Pins.drain reg;
  check_int "every deletion ran" 0 (Version.Pins.deferred_count reg);
  check_bool "all predecessors deleted" true
    (Array.for_all Atomic.get (Array.sub deleted 0 versions))

(* ---------- engine: background = inline ---------- *)

let small_config ~backend =
  {
    (Config.default) with
    write_buffer_size = 8 * 1024;
    level1_capacity = 32 * 1024;
    target_file_size = 16 * 1024;
    block_size = 1024;
    compaction = Policy.leveled ~size_ratio:4 ();
    compaction_backend = backend;
    wal_enabled = false;
  }

(* Same fixed mixed workload shape as the subcompaction determinism test:
   skewed updates, deletes, single-deletes, one range delete. *)
let run_workload db ~seed ~ops =
  let rng = Rng.create seed in
  for i = 1 to ops do
    let k = Rng.int rng 2000 in
    let key = Printf.sprintf "key%06d" k in
    (match Rng.int rng 10 with
    | 0 -> Db.delete db key
    | 1 ->
      let sk = Printf.sprintf "sd%06d" i in
      Db.put db ~key:sk (Printf.sprintf "sval-%06d" i);
      Db.single_delete db sk
    | _ -> Db.put db ~key (Printf.sprintf "val-%06d-%08d" k (Rng.int rng 1_000_000)));
    if i = ops / 2 then Db.range_delete db ~lo:"key000500" ~hi:"key000600"
  done;
  Db.flush db

let dump_strings db =
  List.map
    (fun (level, (e : Entry.t)) ->
      Printf.sprintf "L%d %s #%d %s %s" level e.key e.seqno
        (Entry.kind_to_string e.kind)
        (String.escaped e.value))
    (Db.dump_entries db)

let test_background_equals_inline () =
  let mk backend =
    let dev = Device.in_memory () in
    let db = Db.open_db ~config:(small_config ~backend) ~dev () in
    run_workload db ~seed:0xBEEF ~ops:6000;
    Db.quiesce db;
    db
  in
  let inline = mk Config.Inline and bg = mk Config.Background in
  check_int "same seqno" (Db.last_seqno inline) (Db.last_seqno bg);
  (* One serialized maintenance lane performing the same op sequence:
     not just the same logical contents, the same physical entry stream. *)
  Alcotest.(check (list string)) "dumps identical" (dump_strings inline) (dump_strings bg);
  let s1 = Db.scan inline ~lo:"" ~hi:None () and s2 = Db.scan bg ~lo:"" ~hi:None () in
  Alcotest.(check (list (pair string string))) "scans identical" s1 s2;
  for k = 0 to 1999 do
    let key = Printf.sprintf "key%06d" k in
    Alcotest.(check (option string)) key (Db.get inline key) (Db.get bg key)
  done;
  (match Db.check_invariants bg with Ok () -> () | Error e -> Alcotest.fail e);
  (* Background mode never flushes synchronously inside a write. *)
  check_int "no synchronous stalls" 0 (Db.stats bg).Stats.write_stalls;
  check_bool "flushes happened in background" true ((Db.stats bg).Stats.flushes > 0);
  Db.close inline;
  Db.close bg

let test_background_self_determinism () =
  let mk () =
    let dev = Device.in_memory () in
    let db = Db.open_db ~config:(small_config ~backend:Config.Background) ~dev () in
    run_workload db ~seed:4242 ~ops:4000;
    Db.quiesce db;
    db
  in
  let a = mk () and b = mk () in
  Alcotest.(check (list string)) "identical dumps across runs" (dump_strings a) (dump_strings b);
  Db.close a;
  Db.close b

(* The multi-worker determinism property: for any seed, the physical
   entry stream after quiesce is identical across Inline, one worker,
   and four workers — commits apply in enqueue order and picks replay
   the inline cascade whatever the interleaving of job execution. *)
let test_worker_count_determinism () =
  let dump ~config ~seed =
    let dev = Device.in_memory () in
    let db = Db.open_db ~config ~dev () in
    run_workload db ~seed ~ops:1500;
    Db.quiesce db;
    let d = dump_strings db in
    Db.close db;
    d
  in
  for i = 0 to 19 do
    let seed = 0x5EED + (i * 7919) in
    let inline = dump ~config:(small_config ~backend:Config.Inline) ~seed in
    let w1 =
      dump
        ~config:{ (small_config ~backend:Config.Background) with compaction_workers = 1 }
        ~seed
    in
    let w4 =
      dump
        ~config:{ (small_config ~backend:Config.Background) with compaction_workers = 4 }
        ~seed
    in
    Alcotest.(check (list string)) (Printf.sprintf "seed %#x: workers=1 = inline" seed) inline w1;
    Alcotest.(check (list string)) (Printf.sprintf "seed %#x: workers=4 = inline" seed) inline w4
  done

(* Golden maintenance I/O: a seeded Inline workload — writer-triggered
   flushes and cascades, the throttled per-write slices, [Db.flush],
   [Db.compact_once] until idle, then [Db.major_compact] — must keep
   moving exactly these bytes and counting exactly these events, both
   unthrottled and with a 64 KiB compaction budget per round. The
   figures are a recorded reference: any drift means the tree evolved
   differently. *)
type maintenance_io = {
  flush_bytes : int;
  compaction_read_bytes : int;
  compaction_write_bytes : int;
  flushes : int;
  compactions : int;
  trivial_moves : int;
  write_stalls : int;
  max_stall_burst : int;
}

let maintenance_io db =
  let module Io = Lsm_storage.Io_stats in
  let io = Db.io_stats db and st = Db.stats db in
  {
    flush_bytes = Io.bytes_written ~cls:Io.C_flush io;
    compaction_read_bytes = Io.bytes_read ~cls:Io.C_compaction_read io;
    compaction_write_bytes = Io.bytes_written ~cls:Io.C_compaction_write io;
    flushes = st.Stats.flushes;
    compactions = st.Stats.compactions;
    trivial_moves = st.Stats.trivial_moves;
    write_stalls = st.Stats.write_stalls;
    max_stall_burst = Lsm_util.Histogram.max_value st.Stats.stall_burst_bytes;
  }

(* The I/O after the seeded workload (which ends in [Db.flush]), the
   number of [Db.compact_once] steps that then find work, and the I/O
   after a final [Db.major_compact]. *)
let golden_run ~budget =
  let dev = Device.in_memory () in
  let config =
    { (small_config ~backend:Config.Inline) with compaction_bytes_per_round = budget }
  in
  let db = Db.open_db ~config ~dev () in
  run_workload db ~seed:0x601D ~ops:12_000;
  let after_workload = maintenance_io db in
  let steps = ref 0 in
  while Db.compact_once db do
    incr steps
  done;
  Db.major_compact db;
  let final = maintenance_io db in
  Db.close db;
  (after_workload, !steps, final)

let check_maintenance_io name expected got =
  let field label f = check_int (name ^ ": " ^ label) (f expected) (f got) in
  field "C_flush bytes" (fun r -> r.flush_bytes);
  field "C_compaction_read bytes" (fun r -> r.compaction_read_bytes);
  field "C_compaction_write bytes" (fun r -> r.compaction_write_bytes);
  field "flushes" (fun r -> r.flushes);
  field "compactions" (fun r -> r.compactions);
  field "trivial moves" (fun r -> r.trivial_moves);
  field "write stalls" (fun r -> r.write_stalls);
  field "max stall burst" (fun r -> r.max_stall_burst)

let test_golden_maintenance_io () =
  let after_workload =
    { flush_bytes = 305368; compaction_read_bytes = 1117743;
      compaction_write_bytes = 988963; flushes = 116; compactions = 39; trivial_moves = 1;
      write_stalls = 114; max_stall_burst = 55039 }
  in
  let final =
    { after_workload with
      compaction_read_bytes = 1191911; compaction_write_bytes = 1041128; compactions = 40 }
  in
  List.iter
    (fun (name, budget, max_stall_burst) ->
      let a, steps, f = golden_run ~budget in
      check_maintenance_io (name ^ " workload") { after_workload with max_stall_burst } a;
      check_int (name ^ ": compact_once steps") 0 steps;
      check_maintenance_io (name ^ " final") { final with max_stall_burst } f)
    [ ("unthrottled", None, 55039); ("64 KiB rounds", Some 65536, 38288) ]

(* [compaction_bytes_per_round] is read by the pick hook, so it caps
   each cascade round at every width — here on a one-worker lane. The
   writes go in as batches, which never kick a throttled round, so the
   only rounds are the flush commits' own. Small output files make the
   unbudgeted cascades several single-file merges long; with a one-byte
   budget each flush buys at most one merge, so fewer run in all, and
   the data is intact either way. *)
let test_budget_caps_lane_rounds () =
  let run budget =
    let dev = Device.in_memory () in
    let config =
      { (small_config ~backend:Config.Background) with
        compaction_workers = 1;
        target_file_size = 4096;
        compaction_bytes_per_round = budget }
    in
    let db = Db.open_db ~config ~dev () in
    let rng = Rng.create 77 in
    let model = Hashtbl.create 2000 in
    for i = 1 to 300 do
      let b = Lsm_core.Write_batch.create () in
      for j = 1 to 20 do
        let key = Printf.sprintf "key%06d" (Rng.int rng 2000) in
        let v = Printf.sprintf "v-%06d-%02d-%s" i j (String.make 40 'x') in
        Lsm_core.Write_batch.put b ~key v;
        Hashtbl.replace model key v
      done;
      Db.apply_batch db b
    done;
    Db.quiesce db;
    let compactions = (Db.stats db).Stats.compactions in
    Hashtbl.iter
      (fun key v -> Alcotest.(check (option string)) key (Some v) (Db.get db key))
      model;
    check_int "scan sees every key" (Hashtbl.length model)
      (List.length (Db.scan db ~lo:"" ~hi:None ()));
    (match Db.check_invariants db with Ok () -> () | Error e -> Alcotest.fail e);
    Db.close db;
    compactions
  in
  let unbudgeted = run None and budgeted = run (Some 1) in
  check_bool
    (Printf.sprintf "budgeted lane compactions %d < unbudgeted %d" budgeted unbudgeted)
    true (budgeted < unbudgeted)

(* ---------- concurrent readers vs maintenance ---------- *)

(* Reader domains hammer a committed stable prefix while the main domain
   keeps writing, driving flushes and compactions that retire tables the
   readers may be probing. Version pinning must keep every probed file
   alive at every lane width — inline (width 0, the writer runs the
   maintenance itself) as much as with background workers: a reader
   observing a deleted table would raise, quarantine a live table and
   degrade the db, so "always the right value, nothing quarantined" is
   the whole check. Runs under LSM_LOCKDEP=1 in CI, validating the lock
   order too. *)
let readers_during_maintenance ~name config =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config ~dev () in
  let stable = 1500 in
  for i = 0 to stable - 1 do
    Db.put db ~key:(Printf.sprintf "s%06d" i) (Printf.sprintf "stable%06d" i)
  done;
  Db.flush db;
  let reader r =
    Domain.spawn (fun () ->
        let rng = Rng.create (r + 1) in
        let ok = ref true in
        for _ = 1 to 2500 do
          let i = Rng.int rng stable in
          let key = Printf.sprintf "s%06d" i in
          (match Db.get db key with
          | Some v -> if v <> Printf.sprintf "stable%06d" i then ok := false
          | None -> ok := false);
          if Rng.bernoulli rng 0.05 then begin
            let lo = Printf.sprintf "s%06d" i in
            match Db.scan db ~limit:5 ~lo ~hi:None () with
            | (k, _) :: _ -> if k <> lo then ok := false
            | [] -> ok := false
          end
        done;
        !ok)
  in
  let readers = List.init 3 reader in
  (* Meanwhile: churn through rotations, flushes, compactions. *)
  let compactions_before = (Db.stats db).Stats.compactions in
  for i = 0 to 5999 do
    Db.put db ~key:(Printf.sprintf "w%06d" (i mod 700)) (Printf.sprintf "live%06d" i)
  done;
  let all_ok = List.for_all Domain.join readers in
  Db.quiesce db;
  check_bool (name ^ ": readers always saw the stable prefix") true all_ok;
  check_bool (name ^ ": compactions actually ran") true
    ((Db.stats db).Stats.compactions > compactions_before);
  check_int (name ^ ": nothing quarantined") 0 (List.length (Db.quarantined_tables db));
  check_bool (name ^ ": healthy") true (Db.health db = Db.Healthy);
  check_int (name ^ ": stable prefix intact") stable
    (List.length (Db.scan db ~lo:"s" ~hi:(Some "t") ()));
  (match Db.check_invariants db with Ok () -> () | Error e -> Alcotest.fail e);
  Db.close db

let test_readers_during_background_compaction () =
  readers_during_maintenance ~name:"inline" (small_config ~backend:Config.Inline);
  List.iter
    (fun workers ->
      readers_during_maintenance
        ~name:(Printf.sprintf "background w%d" workers)
        { (small_config ~backend:Config.Background) with compaction_workers = workers })
    [ 1; 4 ]

(* ---------- backpressure ---------- *)

let test_backpressure_validation () =
  let expect_invalid cfg =
    match Config.validate cfg with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid { Config.default with write_slowdown_trigger = 0 };
  (* Byte thresholds: anything below one block is meaningless. *)
  expect_invalid
    { Config.default with
      write_slowdown_trigger = Config.default.block_size - 1;
      write_stop_trigger = 1 lsl 20 };
  expect_invalid
    { Config.default with write_slowdown_trigger = 1 lsl 20; write_stop_trigger = 1 lsl 20 };
  expect_invalid
    { Config.default with write_slowdown_trigger = 1 lsl 20; write_stop_trigger = 1 lsl 16 };
  Config.validate
    { Config.default with
      write_slowdown_trigger = Config.default.block_size;
      write_stop_trigger = 2 * Config.default.block_size }

let test_backpressure_engages () =
  (* Hair-trigger thresholds: sustained writes must trip the slowdown
     path (and count it), yet the engine keeps accepting writes and ends
     logically intact — backpressure delays, it never deadlocks. *)
  let dev = Device.in_memory () in
  let config =
    (* One block of byte debt already slows, two stop — with an 8 KiB
       buffer every rotation lands well past both thresholds. *)
    { (small_config ~backend:Config.Background) with
      write_slowdown_trigger = 1024;
      write_stop_trigger = 2048 }
  in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to 2999 do
    Db.put db ~key:(Printf.sprintf "k%06d" (i mod 400)) (String.make 64 'v')
  done;
  let st = Db.stats db in
  (* Whether a given rotation reads debt in the slowdown band or at the
     stop trigger depends on how far the lane has drained at that
     instant; only the sum is schedule-independent. *)
  check_bool "backpressure engaged" true
    (st.Stats.write_slowdowns + st.Stats.write_stops > 0);
  check_bool "latency histogram populated" true
    (Lsm_util.Histogram.count st.Stats.write_latency_ns = 3000);
  Db.quiesce db;
  Db.flush db;
  (* Settled debt is just whatever L0 holds below its compaction trigger:
     under level0_limit buffers' worth of bytes. *)
  check_bool "debt settles once quiesced" true (Db.backpressure_debt db <= 64 * 1024);
  check_int "all keys live" 400 (List.length (Db.scan db ~lo:"" ~hi:None ()));
  Db.close db

(* ---------- crash cycle under the background backend ---------- *)

(* Power loss with flushes/compactions running on the lane: every
   acknowledged (WAL-synced) put must survive reopen. The crash may fire
   inside a background job's device op or inside the foreground WAL
   append; both surface as [Device.Crashed] on the write path (directly
   or via the failure latch). *)
let test_background_crash_cycle () =
  let dev = Device.in_memory () in
  let config =
    { (small_config ~backend:Config.Background) with
      wal_enabled = true;
      wal_sync_every_write = true;
      write_buffer_size = 2048 }
  in
  let db = Db.open_db ~config ~dev () in
  Device.plan_crash dev ~tear:(Device.Tear_keep 40) (Device.After_syncs 120);
  let acked = ref [] in
  (try
     for i = 0 to 4999 do
       let key = Printf.sprintf "c%06d" i in
       Db.put db ~key (Printf.sprintf "cv%06d" i);
       acked := (key, Printf.sprintf "cv%06d" i) :: !acked
     done;
     Alcotest.fail "crash never fired"
   with Device.Crashed -> ());
  check_bool "made progress before the crash" true (List.length !acked > 0);
  (* Power is off, so the dead instance must stop before the restart, as
     it would in a real crash: close drains its lane (in-flight jobs
     fail on the dead device) and then raises on the dead device. Left
     running, those jobs would write and delete files under the
     recovered instance's names once the device is revived. *)
  (try Db.close db with Device.Crashed -> ());
  Device.revive dev;
  let db2 = Db.open_db ~config ~dev () in
  List.iter
    (fun (k, v) -> Alcotest.(check (option string)) k (Some v) (Db.get db2 k))
    !acked;
  (match Db.check_invariants db2 with Ok () -> () | Error e -> Alcotest.fail e);
  (* The recovered store keeps working in background mode. *)
  Db.put db2 ~key:"post-crash" "alive";
  Db.flush db2;
  Alcotest.(check (option string)) "post-crash write" (Some "alive") (Db.get db2 "post-crash");
  Db.close db2

let suite =
  [
    Alcotest.test_case "scheduler: runs jobs" `Quick test_scheduler_runs_jobs;
    Alcotest.test_case "scheduler: serialized lane" `Quick test_scheduler_serializes;
    Alcotest.test_case "scheduler: failure latch" `Quick test_scheduler_failure_latch;
    Alcotest.test_case "scheduler: wait_until" `Quick test_scheduler_wait_until;
    Alcotest.test_case "scheduler: non-conflicting tickets overlap" `Quick
      test_nonconflicting_tickets_overlap;
    Alcotest.test_case "scheduler: conflicting tickets serialize" `Quick
      test_conflicting_tickets_serialize;
    Alcotest.test_case "scheduler: failed predecessor discards parked edit" `Quick
      test_failed_predecessor_discards_parked;
    Alcotest.test_case "scheduler: shutdown with parked edits" `Quick
      test_shutdown_with_parked_edits;
    Alcotest.test_case "scheduler: width 0 runs on the caller" `Quick test_scheduler_width_zero;
    Alcotest.test_case "version pins: deferred deletion" `Quick test_version_pins;
    Alcotest.test_case "version pins: lock-free readers vs installs" `Quick
      test_version_pins_concurrent;
    Alcotest.test_case "background = inline" `Slow test_background_equals_inline;
    Alcotest.test_case "background: reproducible" `Slow test_background_self_determinism;
    Alcotest.test_case "determinism across worker counts (20 seeds)" `Slow
      test_worker_count_determinism;
    Alcotest.test_case "golden inline maintenance I/O" `Quick test_golden_maintenance_io;
    Alcotest.test_case "compaction budget caps lane rounds" `Quick test_budget_caps_lane_rounds;
    Alcotest.test_case "stress: readers vs background compaction" `Slow
      test_readers_during_background_compaction;
    Alcotest.test_case "backpressure: config validation" `Quick test_backpressure_validation;
    Alcotest.test_case "backpressure: engages and settles" `Quick test_backpressure_engages;
    Alcotest.test_case "crash cycle under background backend" `Quick
      test_background_crash_cycle;
  ]
