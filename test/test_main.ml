let () =
  Alcotest.run "ocaml-lsm"
    [
      ("util", Test_util.suite);
      ("record", Test_record.suite);
      ("storage", Test_storage.suite);
      ("memtable", Test_memtable.suite);
      ("filter", Test_filter.suite);
      ("sstable", Test_sstable.suite);
      ("compaction", Test_compaction.suite);
      ("core", Test_core.suite);
      ("cost", Test_cost.suite);
      ("workload", Test_workload.suite);
      ("kvsep", Test_kvsep.suite);
      ("frag", Test_frag.suite);
      ("internals", Test_internals.suite);
      ("extensions", Test_extensions.suite);
      ("more", Test_more.suite);
      ("parallel", Test_parallel.suite);
      ("scheduler", Test_scheduler.suite);
      ("crash", Test_crash.suite);
      ("corruption", Test_corruption.suite);
      ("ecc", Test_ecc.suite);
      ("format", Test_format.suite);
      ("lint", Test_lint.suite);
      ("lockdep", Test_lockdep.suite);
      ("races", Test_races.suite);
      ("server", Test_server.suite);
    ]
