(* lsm-server — the sharded, multi-tenant serving front door.

   Opens N hash-partitioned engine shards (each with its own WAL and
   manifest under --root, or purely in memory) and serves the RESP
   command set documented in [Lsm_server.Server] on a Unix-domain
   socket. SIGINT/SIGTERM trigger the same graceful drain as the
   SHUTDOWN command: pending replies flush, every shard's background
   lane quiesces, then the listener exits.

   Examples:
     dune exec bin/lsm_server.exe -- --socket /tmp/lsm.sock --root /tmp/lsm-data
     dune exec bin/lsm_server.exe -- --socket /tmp/lsm.sock --memory --shards 8 \
       --workers 4 --fanout 4 *)

module Config = Lsm_core.Config
open Lsm_server

let () =
  let socket = ref "/tmp/lsm-server.sock" in
  let root = ref "" in
  let memory = ref false in
  let shards = ref 4 in
  let workers = ref 2 in
  let fanout = ref 0 in
  let buffer_kib = ref 1024 in
  let quota_ops = ref 0 in
  let quota_bytes = ref 0 in
  let spec =
    [
      ("--socket", Arg.Set_string socket, "PATH Unix-domain socket to listen on");
      ("--root", Arg.Set_string root, "DIR on-disk data root (one subdir per shard)");
      ("--memory", Arg.Set memory, " keep all shards in memory (testing)");
      ("--shards", Arg.Set_int shards, "N number of hash-partitioned shards (default 4)");
      ( "--workers",
        Arg.Set_int workers,
        "N background compaction workers per shard lane (default 2; 0 = inline)" );
      ( "--fanout",
        Arg.Set_int fanout,
        "N cross-shard fan-out domains for MGET/MSET (default 0 = sequential)" );
      ("--buffer-kib", Arg.Set_int buffer_kib, "KIB write buffer per shard (default 1024)");
      ( "--default-quota-ops",
        Arg.Set_int quota_ops,
        "N per-tenant ops/second default limit (0 = unlimited)" );
      ( "--default-quota-bytes",
        Arg.Set_int quota_bytes,
        "N per-tenant bytes/second default limit (0 = unlimited)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "lsm-server: RESP front door over sharded LSM engines";
  let mode =
    if !memory then `Memory
    else if !root <> "" then begin
      (try Unix.mkdir !root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      `Disk !root
    end
    else begin
      prerr_endline "lsm-server: need --root DIR or --memory";
      exit 2
    end
  in
  let config =
    {
      Config.default with
      write_buffer_size = !buffer_kib * 1024;
      compaction_backend = (if !workers > 0 then Config.Background else Config.Inline);
      compaction_workers = max 1 !workers;
      wal_sync_every_write = false;
    }
  in
  let lim n = if n > 0 then Some n else None in
  let quota =
    Quota.create ~default:{ Quota.max_ops = lim !quota_ops; max_bytes = lim !quota_bytes } ()
  in
  let map = Shard_map.open_shards ~config ~fanout_workers:!fanout ~count:!shards ~mode () in
  let server = Server.create ~quota ~shards:map ~sock_path:!socket () in
  let stop _ = Server.request_shutdown server in
  (* A client that hangs up with replies pending must cost only its own
     connection: the write fails with EPIPE and the server closes it. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Printf.printf "lsm-server: %d shard(s), listening on %s\n%!" (Shard_map.count map) !socket;
  Server.run server;
  Shard_map.close_all map;
  let s = Server.stats server in
  Printf.printf "lsm-server: drained after %d commands over %d connection(s)\n%!"
    s.Server.commands s.Server.accepted
