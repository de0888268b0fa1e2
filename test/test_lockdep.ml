(* Runtime lockdep: Ordered_mutex turns rank inversions, same-rank
   double acquisitions, and re-entrancy into deterministic Violation
   raises when enforcement is on — and costs nothing observable when
   off. The whole tier-1 suite additionally runs under LSM_LOCKDEP=1 in
   CI, so every engine lock path is exercised with checking live. *)

module Om = Lsm_util.Ordered_mutex
module Domain_pool = Lsm_util.Domain_pool
module Device = Lsm_storage.Device
module Db = Lsm_core.Db
module Config = Lsm_core.Config
module Policy = Lsm_compaction.Policy

let with_enforce b f =
  let prev = Om.enabled () in
  Om.set_enforce b;
  Fun.protect ~finally:(fun () -> Om.set_enforce prev) f

let expect_violation what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Ordered_mutex.Violation" what
  | exception Om.Violation _ -> ()

let db_m () = Om.create ~rank:Om.Rank.db ~name:"db.id"
let shard_m () = Om.create ~rank:Om.Rank.block_cache_shard ~name:"block_cache.shard"

let test_clean_ordering () =
  with_enforce true @@ fun () ->
  let locks =
    [
      db_m ();
      Om.create ~rank:Om.Rank.table_cache ~name:"table_cache";
      shard_m ();
      Om.create ~rank:Om.Rank.device ~name:"device";
      Om.create ~rank:Om.Rank.stats ~name:"io_stats";
    ]
  in
  (* Acquire the whole hierarchy in rank order, nested. *)
  let rec nest = function
    | [] ->
      Alcotest.(check int) "all five held" 5 (List.length (Om.held_names ()))
    | l :: tl -> Om.with_lock l (fun () -> nest tl)
  in
  nest locks;
  Alcotest.(check (list string)) "all released" [] (Om.held_names ())

let test_rank_inversion_detected () =
  with_enforce true @@ fun () ->
  let db = db_m () and shard = shard_m () in
  (* The correct direction works... *)
  Om.with_lock db (fun () -> Om.with_lock shard (fun () -> ()));
  (* ...the deliberate inversion — block_cache shard before db — raises. *)
  expect_violation "shard-then-db" (fun () ->
      Om.with_lock shard (fun () -> Om.with_lock db (fun () -> ())))

let test_same_rank_detected () =
  with_enforce true @@ fun () ->
  let a = shard_m () and b = shard_m () in
  expect_violation "two shards at once" (fun () ->
      Om.with_lock a (fun () -> Om.with_lock b (fun () -> ())))

let test_reentrancy_detected () =
  with_enforce true @@ fun () ->
  let m = db_m () in
  expect_violation "re-entrant with_lock" (fun () ->
      Om.with_lock m (fun () -> Om.with_lock m (fun () -> ())))

let test_violation_leaves_no_residue () =
  with_enforce true @@ fun () ->
  let db = db_m () and shard = shard_m () in
  expect_violation "inversion" (fun () ->
      Om.with_lock shard (fun () -> Om.with_lock db (fun () -> ())));
  (* The failed acquisition held nothing: the stack is exactly empty
     and both locks remain usable in the correct order. *)
  Alcotest.(check (list string)) "stack empty after violation" [] (Om.held_names ());
  Om.with_lock db (fun () -> Om.with_lock shard (fun () -> ()))

let test_exception_releases_lock () =
  with_enforce true @@ fun () ->
  let m = db_m () in
  (try Om.with_lock m (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check (list string)) "released on raise" [] (Om.held_names ());
  Om.with_lock m (fun () -> ())

(* The body's exception reaches the caller as the same value, with the
   backtrace of its raise point, and the lock is free again — checked
   with tracking off and on. A lock left held would make the second
   [with_lock] fail (OCaml mutexes are error-checking) instead of
   returning. *)
exception Boom of int

let test_with_lock_reraises_same_exception () =
  let prev_bt = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace prev_bt) @@ fun () ->
  List.iter
    (fun enforce ->
      with_enforce enforce @@ fun () ->
      let m = db_m () in
      let sent = Boom 7 and line = ref 0 in
      (match Om.with_lock m (fun () -> line := __LINE__; raise sent) with
      | () -> Alcotest.fail "with_lock swallowed the exception"
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Alcotest.(check bool) "same exception value" true (e == sent);
        let raise_line =
          match Printexc.backtrace_slots bt with
          | Some slots when Array.length slots > 0 ->
            Option.map
              (fun (l : Printexc.location) -> l.line_number)
              (Printexc.Slot.location slots.(0))
          | _ -> None
        in
        Alcotest.(check (option int)) "backtrace starts at the raise" (Some !line) raise_line);
      Alcotest.(check (list string)) "nothing held" [] (Om.held_names ());
      Alcotest.(check int) "lock free again" 1 (Om.with_lock m (fun () -> 1)))
    [ false; true ]

let test_enforcement_off_is_silent () =
  (* Pause graph recording: this test's deliberate inversion must not
     leak into a CI-configured LSM_LOCKDEP_GRAPH file as a fake cycle. *)
  let prev_path = Om.Graph.path () in
  Om.Graph.set_path None;
  Fun.protect ~finally:(fun () -> Om.Graph.set_path prev_path)
  @@ fun () ->
  with_enforce false @@ fun () ->
  let db = db_m () and shard = shard_m () in
  (* Inverted and even "re-entrant-looking" sequential use: no raise
     (and no deadlock, since nothing actually nests on the same lock). *)
  Om.with_lock shard (fun () -> Om.with_lock db (fun () -> ()));
  Alcotest.(check bool) "disabled" false (Om.enabled ())

let test_domain_pool_under_lockdep () =
  with_enforce true @@ fun () ->
  let pool = Domain_pool.create ~size:3 in
  let squares = Domain_pool.map_list pool (fun x -> x * x) (List.init 50 Fun.id) in
  Alcotest.(check (list int)) "pool works under lockdep"
    (List.init 50 (fun i -> i * i))
    squares;
  Domain_pool.shutdown pool

(* A real engine smoke test: flushes, parallel subcompactions, fanned
   multi_get and cache churn all run with enforcement live — any lock
   acquired out of rank order anywhere on those paths would raise. *)
let test_engine_under_lockdep () =
  with_enforce true @@ fun () ->
  let dev = Device.in_memory () in
  let config =
    {
      (Config.default) with
      write_buffer_size = 4 * 1024;
      level1_capacity = 16 * 1024;
      target_file_size = 8 * 1024;
      block_size = 1024;
      compaction = Policy.leveled ~size_ratio:4 ();
      compaction_parallelism = 2;
      block_cache_shards = 4;
      max_open_tables = 8;
      wal_enabled = false;
    }
  in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to 999 do
    Db.put db ~key:(Printf.sprintf "key-%04d" (i mod 250)) (Printf.sprintf "v%d" i)
  done;
  Db.flush db;
  while Db.compact_once db do () done;
  let keys = List.init 250 (fun i -> Printf.sprintf "key-%04d" i) in
  let hits = Db.multi_get db keys |> List.filter Option.is_some |> List.length in
  Alcotest.(check int) "every key readable" 250 hits;
  Db.close db

let test_unlock_drops_exactly_one () =
  (* Regression: unlock must drop exactly one held entry. Two shard
     locks share a name; with recording on (enforcement off, so the
     same-rank pair is legal) releasing the inner one must leave the
     outer hold tracked — a drop-all-matches unlock would empty the
     stack. *)
  let tmp = Filename.temp_file "lockdep_unlock" ".graph" in
  let prev_path = Om.Graph.path () in
  Fun.protect
    ~finally:(fun () ->
      (* Drop this test's contrived edges before restoring any
         CI-configured recording destination. *)
      Om.Graph.reset_run ();
      Om.Graph.set_path prev_path;
      try Sys.remove tmp with Sys_error _ -> ())
  @@ fun () ->
  Om.Graph.set_path (Some tmp);
  with_enforce false @@ fun () ->
  let a = shard_m () and b = shard_m () in
  Om.lock a;
  Om.lock b;
  Om.unlock b;
  Alcotest.(check (list string)) "outer hold survives" [ "block_cache.shard" ] (Om.held_names ());
  Om.unlock a;
  Alcotest.(check (list string)) "empty after both" [] (Om.held_names ())

let test_graph_cross_run_cycle () =
  (* The recorder's reason to exist: two runs, each acyclic on its own,
     whose merged acquired-before graph has a cycle — the cross-run
     deadlock class single-run enforcement cannot see. *)
  let tmp = Filename.temp_file "lockdep_graph" ".graph" in
  Sys.remove tmp;
  let prev_path = Om.Graph.path () in
  Fun.protect
    ~finally:(fun () ->
      (* The seeded inversion must not reach a CI-configured graph
         file: clear the run table before restoring the real path. *)
      Om.Graph.reset_run ();
      Om.Graph.set_path prev_path;
      try Sys.remove tmp with Sys_error _ -> ())
  @@ fun () ->
  (* Flush edges observed so far in this process to their own file
     before repointing recording at the temp file. *)
  if prev_path <> None then ignore (Om.Graph.merge_to_file ());
  Om.Graph.reset_run ();
  Om.Graph.set_path (Some tmp);
  let db = db_m () and shard = shard_m () in
  (* Run 1: the legal order, enforcement live. *)
  with_enforce true (fun () ->
      Om.with_lock db (fun () -> Om.with_lock shard (fun () -> ())));
  let run1 = Om.Graph.merge_to_file () in
  Alcotest.(check bool) "run 1 records db -> shard" true
    (List.exists
       (fun (e : Om.Graph.edge) -> e.Om.Graph.src = "db.id" && e.dst = "block_cache.shard")
       run1);
  Alcotest.(check bool) "run 1 acyclic" true (Om.Graph.cycles run1 = []);
  (* Run 2: the mirror order with enforcement off — nothing raises, but
     recording is independent of enforcement, so the edge still lands. *)
  Om.Graph.reset_run ();
  with_enforce false (fun () ->
      Om.with_lock shard (fun () -> Om.with_lock db (fun () -> ())));
  ignore (Om.Graph.merge_to_file ());
  let loaded = Om.Graph.load tmp in
  Alcotest.(check bool) "merged file holds both orders" true
    (List.exists
       (fun (e : Om.Graph.edge) -> e.Om.Graph.src = "block_cache.shard" && e.dst = "db.id")
       loaded
    && List.exists
         (fun (e : Om.Graph.edge) -> e.Om.Graph.src = "db.id" && e.dst = "block_cache.shard")
         loaded);
  (match Om.Graph.cycles loaded with
  | [] -> Alcotest.fail "expected a cross-run cycle in the merged graph"
  | cyc :: _ ->
    Alcotest.(check bool) "cycle names both locks" true
      (List.mem "db.id" cyc && List.mem "block_cache.shard" cyc));
  (* `lsm-lint --lockdep-graph` judges the same file: the cycle is a
     failing finding. *)
  let report = Lsm_lint.Lockdep_graph.analyze ~file:tmp ~static_edges:[] in
  Alcotest.(check (list string)) "lint reports the cycle" [ "R11" ]
    (List.map
       (fun (f : Lsm_lint.Finding.t) -> f.Lsm_lint.Finding.rule)
       report.Lsm_lint.Lockdep_graph.g_findings)

let suite =
  [
    Alcotest.test_case "clean rank ordering passes" `Quick test_clean_ordering;
    Alcotest.test_case "rank inversion detected" `Quick test_rank_inversion_detected;
    Alcotest.test_case "same-rank double acquisition detected" `Quick test_same_rank_detected;
    Alcotest.test_case "re-entrancy detected" `Quick test_reentrancy_detected;
    Alcotest.test_case "violation leaves no residue" `Quick test_violation_leaves_no_residue;
    Alcotest.test_case "exception releases lock" `Quick test_exception_releases_lock;
    Alcotest.test_case "with_lock re-raises the same exception" `Quick
      test_with_lock_reraises_same_exception;
    Alcotest.test_case "enforcement off is silent" `Quick test_enforcement_off_is_silent;
    Alcotest.test_case "domain pool under lockdep" `Quick test_domain_pool_under_lockdep;
    Alcotest.test_case "engine smoke under lockdep" `Quick test_engine_under_lockdep;
    Alcotest.test_case "unlock drops exactly one hold" `Quick test_unlock_drops_exactly_one;
    Alcotest.test_case "graph recorder: cross-run cycle" `Quick test_graph_cross_run_cycle;
  ]
