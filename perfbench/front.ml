(* The server side of the benchmark: RESP client connections over Unix
   sockets, the lsm_server binary as a child process, and the two
   front-door probes of the traced run — an in-process Shard_map replay
   of recorded requests under the binary's configuration, and the same
   requests sent one at a time to a fresh binary. *)

open Meter
module Resp = Lsm_server.Resp
module Shard_map = Lsm_server.Shard_map
module Config = Lsm_core.Config
module Db = Lsm_core.Db
module Write_batch = Lsm_core.Write_batch

(* The binary's shipped defaults, passed explicitly so that nothing in
   the environment changes them: 4 shards, a 2-worker background lane,
   1 MiB write buffers, WAL on without per-write sync, no fan-out pool. *)
let shards = 4
let workers = 2
let buffer_kib = 1024

let binary_config =
  { Config.default with write_buffer_size = buffer_kib * 1024;
                        compaction_backend = Config.Background; compaction_workers = workers;
                        compaction_parallelism = 1; wal_enabled = true;
                        wal_sync_every_write = false }

(* ---------------- connections ---------------- *)

type 'a conn = {
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable in_len : int;
  mutable obuf : Bytes.t;
  mutable o_start : int;
  mutable o_end : int;
  pending : 'a Queue.t;  (** what each outstanding request expects, in send order *)
  mutable bytes_in : int;
}

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.set_nonblock fd;
  { fd; inbuf = Bytes.create 65536; in_len = 0; obuf = Bytes.create 65536; o_start = 0;
    o_end = 0; pending = Queue.create (); bytes_in = 0 }

let enqueue c frame expect =
  let n = String.length frame in
  if c.o_end + n > Bytes.length c.obuf then begin
    let live = c.o_end - c.o_start in
    let b =
      if live + n > Bytes.length c.obuf then Bytes.create (2 * (live + n)) else c.obuf
    in
    Bytes.blit c.obuf c.o_start b 0 live;
    c.obuf <- b;
    c.o_start <- 0;
    c.o_end <- live
  end;
  Bytes.blit_string frame 0 c.obuf c.o_end n;
  c.o_end <- c.o_end + n;
  Queue.add expect c.pending

let wants_write c = c.o_end > c.o_start

let try_write c =
  if wants_write c then
    match Unix.single_write c.fd c.obuf c.o_start (c.o_end - c.o_start) with
    | n ->
      c.o_start <- c.o_start + n;
      if c.o_start = c.o_end then begin c.o_start <- 0; c.o_end <- 0 end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Read what is available and hand every complete reply, with the
   expectation it answers, to [on_reply]. Returns false on EOF. *)
let try_read c on_reply =
  if c.in_len = Bytes.length c.inbuf then begin
    let b = Bytes.create (2 * Bytes.length c.inbuf) in
    Bytes.blit c.inbuf 0 b 0 c.in_len;
    c.inbuf <- b
  end;
  match Unix.read c.fd c.inbuf c.in_len (Bytes.length c.inbuf - c.in_len) with
  | 0 -> false
  | n ->
    c.in_len <- c.in_len + n;
    c.bytes_in <- c.bytes_in + n;
    let pos = ref 0 in
    let continue = ref true in
    while !continue do
      match Resp.parse_reply c.inbuf ~pos:!pos ~len:c.in_len with
      | Some (reply, p) ->
        pos := p;
        on_reply (Queue.pop c.pending) reply
      | None -> continue := false
    done;
    Bytes.blit c.inbuf !pos c.inbuf 0 (c.in_len - !pos);
    c.in_len <- c.in_len - !pos;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true

(* One select round over [conns], waiting at most [timeout] seconds. *)
let pump ?(timeout = 0.05) conns on_reply =
  let rd = List.map (fun c -> c.fd) conns in
  let wr = List.filter_map (fun c -> if wants_write c then Some c.fd else None) conns in
  match Unix.select rd wr [] timeout with
  | r, w, _ ->
    List.iter
      (fun c ->
        if List.mem c.fd w then try_write c;
        if List.mem c.fd r && not (try_read c on_reply) then failwith "server closed connection")
      conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Pump until every connection has no request outstanding. *)
let drain ?(limit_s = 60.0) conns on_reply =
  let deadline = now_ns () + int_of_float (limit_s *. 1e9) in
  while List.exists (fun c -> not (Queue.is_empty c.pending)) conns do
    if now_ns () > deadline then failwith "server did not answer in time";
    pump conns on_reply
  done

(* A blocking request on an otherwise idle connection. *)
let call c args =
  let out = ref None in
  enqueue c (Resp.encode_command args) ();
  drain [ c ] (fun () r -> out := Some r);
  Option.get !out

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* ---------------- the server process ---------------- *)

type server = { pid : int; sock : string; root : string; mutable live : bool }

let live_servers : server list ref = ref []

let kill_all () =
  List.iter
    (fun s ->
      if s.live then begin
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
        s.live <- false
      end)
    !live_servers

let () = at_exit kill_all

let server_exe = ref "_build/default/bin/lsm_server.exe"

(* Start the binary on a fresh data root under the work dir and wait
   until it accepts connections. The environment is passed through
   minus every LSM_* variable. *)
let spawn () =
  let root = Host.fresh_dir "serve" in
  let sock = Filename.concat root "s.sock" in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not (String.starts_with ~prefix:"LSM_" kv || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
    |> Array.of_list
  in
  let log = Unix.openfile (Filename.concat root "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let data = Filename.concat root "data" in
  let argv =
    [| !server_exe; "--socket"; sock; "--root"; data; "--shards"; string_of_int shards;
       "--workers"; string_of_int workers; "--buffer-kib"; string_of_int buffer_kib;
       "--fanout"; "0" |]
  in
  let pid = Unix.create_process_env argv.(0) argv env null log log in
  Unix.close log;
  Unix.close null;
  let s = { pid; sock; root; live = true } in
  live_servers := s :: !live_servers;
  (* the socket file appears at bind, before listen: poll by connecting *)
  let deadline = now_ns () + 20_000_000_000 in
  let rec wait () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
     | 0, _ -> ()
     | _ -> s.live <- false; failwith "lsm_server exited during start-up");
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if now_ns () > deadline then failwith "lsm_server did not start";
      Unix.sleepf 0.002;
      wait ()
  in
  wait ();
  s

(* The sum of one per-shard field of the STATS text ("slowdowns"), or a
   top-level line ("commands"). *)
let stats_field text field =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc line ->
         let ws = String.split_on_char ' ' line |> List.filter (( <> ) "") in
         let rec find = function
           | k :: v :: rest ->
             if k = field then (match int_of_string_opt v with Some n -> acc + n | None -> acc)
             else find (v :: rest)
           | _ -> acc
         in
         find ws)
       0

let stats_text c =
  match call c [ "STATS" ] with Resp.Bulk t -> t | _ -> failwith "STATS: unexpected reply"

(* SHUTDOWN drains and quiesces every shard; wait for the exit. *)
let shutdown s c =
  (match call c [ "SHUTDOWN" ] with
   | Resp.Simple "OK" -> ()
   | _ -> failwith "SHUTDOWN: unexpected reply");
  let _, status = Unix.waitpid [] s.pid in
  s.live <- false;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "lsm_server exited uncleanly"

(* ---------------- recorded requests ---------------- *)

type req = { tenant : string; args : string list }

let frame r = Resp.encode_command r.args

(* Replay [reqs] on an in-process Shard_map opened with the binary's
   configuration on a fresh on-disk root, timing each call into it.
   Returns per-request durations (ns), the map (still open, quiesced)
   and the replay's wall time. *)
let replay reqs =
  let root = Host.fresh_dir "replay" in
  let map = Shard_map.open_shards ~config:binary_config ~count:shards ~mode:(`Disk root) () in
  let route k = Shard_map.db map (Shard_map.shard_of_key map k) in
  let stored r k = Shard_map.encode_key ~tenant:r.tenant k in
  Trace.on := true;
  let t_start = now_ns () in
  let durs =
    Array.map
      (fun r ->
        let req = Trace.new_request () in
        let t0 = now_ns () in
        (match r.args with
         | [ "PUT"; k; v ] ->
           let k = stored r k in
           Trace.timed ~req "db.put" (fun () -> Db.put (route k) ~key:k v)
         | [ "GET"; k ] ->
           let k = stored r k in
           Trace.timed ~req "db.get" (fun () -> ignore (Db.get (route k) k))
         | "MGET" :: ks ->
           let ks = List.map (stored r) ks in
           Trace.timed ~req "shard_map.multi_get" (fun () -> ignore (Shard_map.multi_get map ks))
         | "MSET" :: kvs ->
           let groups = Hashtbl.create 8 in
           let rec add = function
             | k :: v :: rest ->
               let k = stored r k in
               let s = Shard_map.shard_of_key map k in
               let wb =
                 match Hashtbl.find_opt groups s with
                 | Some wb -> wb
                 | None -> let wb = Write_batch.create () in Hashtbl.add groups s wb; wb
               in
               Write_batch.put wb ~key:k v;
               add rest
             | _ -> ()
           in
           add kvs;
           let grouped = Hashtbl.fold (fun s wb acc -> (s, wb) :: acc) groups [] in
           Trace.timed ~req "shard_map.apply_grouped" (fun () -> Shard_map.apply_grouped map grouped)
         | _ -> invalid_arg "replay: unsupported request");
        now_ns () - t0)
      reqs
  in
  let wall = now_ns () - t_start in
  Trace.on := false;
  (durs, map, root, wall)

(* The same requests, one at a time, against a fresh binary: round trip
   minus the replay's in-process time is what the socket, the reactor
   and the RESP codec add. Returns the server's STATS text. *)
let socket_probe reqs durs =
  let s = spawn () in
  let conns = Hashtbl.create 4 in
  let conn_for tenant =
    match Hashtbl.find_opt conns tenant with
    | Some c -> c
    | None ->
      let c = connect s.sock in
      ignore (call c [ "TENANT"; tenant ]);
      Hashtbl.add conns tenant c;
      c
  in
  let diffs = Samples.create () in
  Trace.on := true;
  Array.iteri
    (fun i r ->
      let c = conn_for r.tenant in
      let t0 = now_ns () in
      ignore (Trace.timed ~req:(Trace.new_request ()) "socket.request" (fun () -> call c r.args));
      Samples.add diffs (max 0 (now_ns () - t0 - durs.(i))))
    reqs;
  Trace.on := false;
  let c = conn_for "probe" in
  let text = stats_text c in
  shutdown s c;
  Hashtbl.iter (fun _ c -> close_conn c) conns;
  Host.rm_rf s.root;
  set "socket.overhead_us" "us" (float_of_int (Samples.percentile diffs 50.0) /. 1e3);
  text
