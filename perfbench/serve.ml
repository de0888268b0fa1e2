(* The [serve] workload: the lsm_server binary in its own process,
   driven by one single-threaded generator over two pipelined
   connections. Each connection owns a tenant and a private key slice,
   so an exact model of acked writes can judge every reply (same
   semantics as Lsm_workload.Server_harness, including torn-group MGET
   detection).

   Phase 1 is a paced open loop at [offered_rate]: request i is due at
   t0 + i/rate whatever the server does, latency is timed from the due
   time, and how late the generator issued each request is recorded.
   Phase 2 is a closed loop at [depth] outstanding requests per
   connection, and gives the throughput. *)

open Meter
module Rng = Lsm_util.Rng
module Zipf = Lsm_util.Zipf
module Resp = Lsm_server.Resp
module Shard_map = Lsm_server.Shard_map

(* About half the saturated phase-2 rate of the seed engine on the
   2-core reference host (see perfbench/NOTES.md). *)
let offered_rate = 14_000
let depth = 16

(* Phase-1 latency windows: half-second stretches at the offered rate
   hold >= 1250 requests of each class, so each window's p99 has more
   than ten samples beyond it; a percentile is the median over windows. *)
let lat_windows = 10
let conns_n = 2
let single_keys = 2048
let groups = 64
let group_width = 8
let value_size = 256
(* Phase-1 requests kept for the traced run's replay; untraced runs keep
   none, so the generator's heap (and its GC pauses) stays small. *)
let recorded = 60_000

let value_of ~key ~tag =
  let base = Printf.sprintf "%s:%08d:" key tag in
  if String.length base >= value_size then base
  else base ^ String.make (value_size - String.length base) 'x'

let tag_of v = match String.split_on_char ':' v with _ :: t :: _ -> t | _ -> ""

type kind = K_put | K_get | K_mset | K_mget

type expect = {
  kind : kind;
  conn : int;
  due : int;
  writes : (string * string) list;
  keys : string list;
  phase : int;  (** 0 set-up, 1 open loop, 2 closed loop *)
  rec_idx : int;  (** index among recorded requests, or -1 *)
}

type client = {
  id : int;
  tenant : string;
  rng : Rng.t;
  zipf : Zipf.t;
  model : (string, string) Hashtbl.t;  (** acked value of every written key *)
  mutable tag : int;
  c : expect Front.conn;
}

let single_key cl j = Printf.sprintf "c%d-k%05d" cl.id j
let group_key cl g i = Printf.sprintf "c%d-g%03d-k%02d" cl.id g i

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable torn : int;
  mutable user_bytes : int;  (** stored key + value bytes of acked writes *)
  mutable done2 : int;  (** phase-2 completions before its end *)
  mutable corrupt_next : bool;
  mutable n_rec : int;
  lat : Samples.t array array;  (** phase-1 latency per kind and window, from due time *)
  done_w : int array;  (** phase-2 completions per window *)
  late : Samples.t;  (** phase-1 generator lateness *)
  seg : (int * int) array;  (** traced run: (latency sum, count) per segment parity *)
  recs : Front.req array;
  replies : Resp.reply option array;
}

let kind_ix = function K_put -> 0 | K_get -> 1 | K_mset -> 2 | K_mget -> 3

(* The model's value of [key]; the first present entry asked about is
   falsified when the tests ask for a deliberately corrupted model. *)
let model_get t cl key =
  match Hashtbl.find_opt cl.model key with
  | Some v when t.corrupt_next ->
    t.corrupt_next <- false;
    Hashtbl.replace cl.model key (v ^ "!");
    Some (v ^ "!")
  | x -> x

let stored cl k = String.length cl.tenant + 1 + String.length k

let judge t clients e reply =
  let cl = clients.(e.conn) in
  let ok =
    match (e.kind, reply) with
    | (K_put | K_mset), Resp.Simple "OK" ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace cl.model k v;
          if e.phase > 0 then t.user_bytes <- t.user_bytes + stored cl k + String.length v)
        e.writes;
      true
    | K_get, (Resp.Bulk _ | Resp.Nil) ->
      let got = match reply with Resp.Bulk v -> Some v | _ -> None in
      got = model_get t cl (List.hd e.keys)
    | K_mget, Resp.Array rs when List.length rs = List.length e.keys ->
      let got = List.map (function Resp.Bulk v -> Some v | _ -> None) rs in
      let tags = List.sort_uniq compare (List.map (Option.map tag_of) got) in
      if List.length tags > 1 then t.torn <- t.torn + 1;
      List.length tags <= 1 && got = List.map (model_get t cl) e.keys
    | _ -> false
  in
  if not ok then t.failed <- t.failed + 1;
  if e.rec_idx >= 0 then t.replies.(e.rec_idx) <- Some reply

(* Draw the next request of a client: 40% PUT, 25% GET, 20% MSET of one
   whole group, 15% MGET of one whole group. Group keys are written only
   by whole-group MSETs with one tag, so a group read must be uniform. *)
let next_request cl =
  let r = Rng.int cl.rng 100 in
  if r < 65 then begin
    let key = single_key cl (Zipf.next_scrambled cl.zipf cl.rng) in
    if r < 40 then begin
      cl.tag <- cl.tag + 1;
      let v = value_of ~key ~tag:cl.tag in
      (K_put, [ "PUT"; key; v ], [ (key, v) ], [ key ])
    end
    else (K_get, [ "GET"; key ], [], [ key ])
  end
  else begin
    let g = Rng.int cl.rng groups in
    let keys = List.init group_width (group_key cl g) in
    if r < 85 then begin
      cl.tag <- cl.tag + 1;
      let kvs = List.map (fun k -> (k, value_of ~key:k ~tag:cl.tag)) keys in
      (K_mset, "MSET" :: List.concat_map (fun (k, v) -> [ k; v ]) kvs, kvs, keys)
    end
    else (K_mget, "MGET" :: keys, [], keys)
  end

let issue t cl ~phase ~due =
  let kind, args, writes, keys = next_request cl in
  let rec_idx =
    if phase = 1 && t.n_rec < Array.length t.recs then begin
      t.recs.(t.n_rec) <- { Front.tenant = cl.tenant; args };
      t.n_rec <- t.n_rec + 1;
      t.n_rec - 1
    end
    else -1
  in
  t.attempted <- t.attempted + 1;
  Front.enqueue cl.c (Resp.encode_command args) { kind; conn = cl.id; due; writes; keys; phase; rec_idx };
  Front.try_write cl.c

(* Set-up: start the binary, bind both tenants, and write every key once
   (MSETs of 8), waiting for every ack. *)
let setup ~seed t =
  let s = Front.spawn () in
  let root = Rng.create seed in
  let clients =
    Array.init conns_n (fun id ->
        let c0 = Front.connect s.Front.sock in
        let tenant = Printf.sprintf "t%d" id in
        ignore (Front.call c0 [ "TENANT"; tenant ]);
        let c = { c0 with Front.pending = Queue.create () } in
        { id; tenant; rng = Rng.split root; zipf = Zipf.create ~theta:0.99 single_keys;
          model = Hashtbl.create 4096; tag = 0; c })
  in
  let conns = Array.to_list (Array.map (fun cl -> cl.c) clients) in
  Array.iter
    (fun cl ->
      let send keys =
        let kvs = List.map (fun k -> (k, value_of ~key:k ~tag:0)) keys in
        Front.enqueue cl.c
          (Resp.encode_command ("MSET" :: List.concat_map (fun (k, v) -> [ k; v ]) kvs))
          { kind = K_mset; conn = cl.id; due = 0; writes = kvs; keys; phase = 0; rec_idx = -1 }
      in
      for b = 0 to (single_keys / group_width) - 1 do
        send (List.init group_width (fun i -> single_key cl ((b * group_width) + i)))
      done;
      for g = 0 to groups - 1 do
        send (List.init group_width (group_key cl g))
      done)
    clients;
  Front.drain conns (judge t clients);
  (s, clients)

let run ~seed ~seconds ~trace ~corrupt =
  let t =
    { attempted = 0; failed = 0; torn = 0; user_bytes = 0; done2 = 0; corrupt_next = false; n_rec = 0;
      lat = Array.init 4 (fun _ -> windowed ~n:lat_windows ()); done_w = Array.make windows 0;
      late = Samples.create ();
      seg = [| (0, 0); (0, 0) |];
      recs = Array.make (if trace then recorded else 0) { Front.tenant = ""; args = [] };
      replies = Array.make (if trace then recorded else 0) None }
  in
  (* set-up three times; the median is setup_s, the last one is used *)
  let setups =
    List.init 3 (fun i ->
        let t0 = now_ns () in
        let s, clients = setup ~seed t in
        let dt = float_of_int (now_ns () - t0) /. 1e9 in
        if i < 2 then begin
          let ctl = Front.connect s.Front.sock in
          Front.shutdown s ctl;
          Front.close_conn ctl;
          Array.iter (fun cl -> Front.close_conn cl.c) clients;
          Host.rm_rf s.Front.root
        end;
        (dt, (s, clients)))
  in
  let s, clients = snd (List.nth setups 2) in
  set "setup_s" "s" (median_float (List.map fst setups)) ~note:"median of 3";
  t.corrupt_next <- corrupt;
  let conns = Array.to_list (Array.map (fun cl -> cl.c) clients) in
  let bytes_in () = List.fold_left (fun a c -> a + c.Front.bytes_in) 0 conns in
  let wchar0 = Host.io_counter s.Front.pid "wchar" and in0 = bytes_in () in
  (* phase 1: open loop *)
  let phase1 = seconds /. 2.0 in
  let period = 1e9 /. float_of_int offered_rate in
  let t0 = now_ns () in
  let t_end = t0 + int_of_float (phase1 *. 1e9) in
  let on_reply e reply =
    let now = now_ns () in
    judge t clients e reply;
    if e.phase = 1 then begin
      let w = min (lat_windows - 1) ((e.due - t0) * lat_windows / (t_end - t0)) in
      Samples.add t.lat.(kind_ix e.kind).(w) (now - e.due)
    end
  in
  let i = ref 0 in
  let rec loop () =
    let now = now_ns () in
    if now < t_end then begin
      let rec due_now () =
        let due = t0 + int_of_float (float_of_int !i *. period) in
        if due <= now && due < t_end then begin
          Samples.add t.late (now - due);
          issue t clients.(!i mod conns_n) ~phase:1 ~due;
          incr i;
          due_now ()
        end
        else due
      in
      let next = due_now () in
      let wait = float_of_int (max 0 (next - now_ns ())) /. 1e9 in
      Front.pump ~timeout:(Float.min wait 0.001) conns on_reply;
      loop ()
    end
  in
  loop ();
  Front.drain conns on_reply;
  (* phase 2: closed loop at fixed depth *)
  let phase2 = seconds -. phase1 in
  let t2 = now_ns () in
  let t2_end = t2 + int_of_float (phase2 *. 1e9) in
  let on_reply2 e reply =
    let now = now_ns () in
    judge t clients e reply;
    if now <= t2_end then begin
      t.done2 <- t.done2 + 1;
      let w = min (windows - 1) ((now - t2) * windows / (t2_end - t2)) in
      t.done_w.(w) <- t.done_w.(w) + 1;
      if trace then begin
        let k = (t.done2 lsr 10) land 1 in
        let s, n = t.seg.(k) in
        t.seg.(k) <- (s + (now - e.due), n + 1);
        if k = 1 then ignore (Trace.record ~req:(Trace.new_request ()) "serve.request" e.due now)
      end;
      issue t clients.(e.conn) ~phase:2 ~due:now
    end
  in
  Array.iter
    (fun cl -> for _ = 1 to depth do issue t cl ~phase:2 ~due:t2 done)
    clients;
  while now_ns () < t2_end do
    Front.pump conns on_reply2
  done;
  Front.drain conns on_reply2;
  let wchar1 = Host.io_counter s.Front.pid "wchar" and in1 = bytes_in () in
  let rss = Host.peak_rss_mb ~pid:(string_of_int s.Front.pid) () in
  let ctl = Front.connect s.Front.sock in
  let stats = Front.stats_text ctl in
  ignore (Front.call ctl [ "FLUSH" ]);
  Front.shutdown s ctl;
  Front.close_conn ctl;
  Array.iter (fun cl -> Front.close_conn cl.c) clients;
  let live = Host.du (Filename.concat s.Front.root "data") in
  let logical =
    Array.fold_left
      (fun a cl -> Hashtbl.fold (fun k v a -> a + stored cl k + String.length v) cl.model a)
      0 clients
  in
  Host.rm_rf s.Front.root;
  let lat k = t.lat.(kind_ix k) in
  let batch =
    Array.init lat_windows (fun w ->
        let b = Samples.create () in
        List.iter
          (fun k -> let s = (lat k).(w) in for j = 0 to Samples.count s - 1 do Samples.add b s.Samples.a.(j) done)
          [ K_mset; K_mget ];
        b)
  in
  let win_ns = int_of_float (phase2 *. 1e9) / windows in
  set "throughput_ops_s" "ops/s"
    (rate_w (Array.map (fun n -> (n, win_ns)) t.done_w))
    ~note:(Printf.sprintf "phase 2, depth %d x %d, %d ops, IQM of %d windows" depth conns_n
             t.done2 windows);
  latency_w "write" (lat K_put);
  latency_w "read" (lat K_get);
  latency_w "batch" batch;
  set "write_amp" "ratio"
    (float_of_int (wchar1 - wchar0 - (in1 - in0)) /. float_of_int (max 1 t.user_bytes))
    ~note:"server file bytes written (wchar minus reply bytes) / acked user bytes";
  set "space_amp" "ratio" (float_of_int live /. float_of_int (max 1 logical))
    ~note:"data-root bytes after FLUSH and drain / live logical bytes";
  set "peak_rss_mb" "MB" rss ~note:"server process VmHWM";
  set "gen.late_us_p99" "us" (float_of_int (Samples.percentile t.late 99.0) /. 1e3);
  set "offered_rate_ops_s" "ops/s" (float_of_int offered_rate);
  if trace then begin
    let per (s, n) = float_of_int s /. float_of_int (max 1 n) in
    set "trace.overhead_frac" "ratio" ((per t.seg.(1) /. per t.seg.(0)) -. 1.0)
  end;
  let n_rec = t.n_rec in
  ( t.attempted, t.failed, t.torn, stats,
    Array.sub t.recs 0 n_rec,
    Array.to_list (Array.sub t.replies 0 n_rec) |> List.filter_map Fun.id )
