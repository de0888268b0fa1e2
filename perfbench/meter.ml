(* Measurement primitives: a monotonic wall clock, exact-percentile
   sample vectors, the metric registry the final JSON line is printed
   from, and the in-memory span tracer of the traced run. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let words () = Gc.minor_words ()

(* ---------------- samples ---------------- *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n
  let sum t = Array.fold_left ( + ) 0 (Array.sub t.a 0 t.n)
  let mean t = if t.n = 0 then 0.0 else float_of_int (sum t) /. float_of_int t.n

  (* Nearest-rank percentile over the exact samples. *)
  let percentile t p =
    if t.n = 0 then 0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)) in
      s.(max 0 (min (t.n - 1) (r - 1)))
    end
end

(* ---------------- metrics ---------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let registry : metric list ref = ref []

let set ?(note = "") name unit_ value =
  registry := { name; value; unit_; note } :: List.filter (fun m -> m.name <> name) !registry

let get name = List.find_opt (fun m -> m.name = name) !registry |> Option.map (fun m -> m.value)

(* Runs are cut into [windows] equal stretches and a timing is reported
   as the interquartile mean of its per-window values (the mean of the
   middle half): a stall or a slow spell of the host landing in a few
   windows moves it little, while a trend over the run (a growing tree
   or write buffer) is averaged rather than sampled at one point. *)
let windows = 20

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let iqm l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n < 4 then median_float l
  else begin
    let lo = n / 4 and hi = n - (n / 4) in
    let sum = ref 0.0 in
    for i = lo to hi - 1 do sum := !sum +. a.(i) done;
    !sum /. float_of_int (hi - lo)
  end

let windowed ?(n = windows) () = Array.init n (fun _ -> Samples.create ())

(* A latency pair (median and p99, in microseconds) over windowed
   samples; each is the interquartile mean of the windows' values. The
   note gives the total sample count. *)
let latency_w prefix (ws : Samples.t array) =
  let ws = Array.to_list ws |> List.filter (fun s -> Samples.count s > 0) in
  let n = List.fold_left (fun a s -> a + Samples.count s) 0 ws in
  if n > 0 then begin
    let note = Printf.sprintf "n=%d, IQM of %d windows" n (List.length ws) in
    let pct p = iqm (List.map (fun s -> float_of_int (Samples.percentile s p) /. 1e3) ws) in
    set ~note (prefix ^ "_p50_us") "us" (pct 50.0);
    set ~note (prefix ^ "_p99_us") "us" (pct 99.0)
  end

(* Ops per second as the interquartile mean over windows of (ops, ns). *)
let rate_w (ws : (int * int) array) =
  iqm
    (Array.to_list ws
    |> List.filter (fun (_, ns) -> ns > 0)
    |> List.map (fun (ops, ns) -> float_of_int ops /. (float_of_int ns /. 1e9)))

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let metrics_json () =
  List.rev !registry
  |> List.map (fun m ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
           (json_float m.value) (json_string m.unit_))
  |> String.concat ", "

let print_report () =
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.4f %-6s %s\n" m.name m.value m.unit_ m.note)
    (List.rev !registry)

(* ---------------- spans ---------------- *)

(* Spans of the traced run, kept in parallel growable arrays and written
   out once at the end. A span has a name, start and end (monotonic ns),
   the id of the span that caused it (-1 for a request's root) and the
   request id its root was opened with. Child spans replayed after their
   parent (the sstable probes behind a [Db.get]) still name that parent:
   self time subtracts child durations, not interval overlap. *)
module Trace = struct
  let on = ref false
  let names : (string, int) Hashtbl.t = Hashtbl.create 32
  let name_of = ref [||]
  let name_id s =
    match Hashtbl.find_opt names s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names s i;
      name_of := Array.append !name_of [| s |];
      i

  let nm = Samples.create ()
  let st = Samples.create ()
  let en = Samples.create ()
  let par = Samples.create ()
  let req = Samples.create ()
  let wds = Samples.create ()
  let next_req = ref 0

  let new_request () =
    incr next_req;
    !next_req

  (* Open a span; returns its id. [words] is the minor-heap words
     allocated inside it, filled in by [close]. *)
  let open_ ?(parent = -1) ~req:r name =
    let id = Samples.count nm in
    Samples.add nm (name_id name);
    Samples.add st (now_ns ());
    Samples.add en 0;
    Samples.add par parent;
    Samples.add req r;
    Samples.add wds 0;
    id

  let close ?(words = 0) id =
    en.Samples.a.(id) <- now_ns ();
    wds.Samples.a.(id) <- words

  (* Record an already-measured interval. *)
  let record ?(parent = -1) ?(words = 0) ~req:r name t0 t1 =
    let id = Samples.count nm in
    Samples.add nm (name_id name);
    Samples.add st t0;
    Samples.add en t1;
    Samples.add par parent;
    Samples.add req r;
    Samples.add wds words;
    id

  (* [timed name ~req f] runs [f] inside a span when tracing is on, and
     returns its value; the span records minor words allocated. *)
  let timed ?parent ~req name f =
    if not !on then f ()
    else begin
      let w0 = words () in
      let id = open_ ?parent ~req name in
      let v = f () in
      close ~words:(int_of_float (words () -. w0)) id;
      v
    end

  let count () = Samples.count nm

  type agg = { n : int; dur : Samples.t; self : Samples.t; words : Samples.t; self_words : Samples.t }

  (* Per name: every span's duration, self time (duration minus its
     children's durations), and allocation. *)
  let aggregate () =
    let n = count () in
    let child_dur = Array.make n 0 and child_words = Array.make n 0 in
    for i = 0 to n - 1 do
      let p = par.Samples.a.(i) in
      if p >= 0 then begin
        child_dur.(p) <- child_dur.(p) + (en.Samples.a.(i) - st.Samples.a.(i));
        child_words.(p) <- child_words.(p) + wds.Samples.a.(i)
      end
    done;
    let tbl = Hashtbl.create 32 in
    for i = 0 to n - 1 do
      let name = !name_of.(nm.Samples.a.(i)) in
      let a =
        match Hashtbl.find_opt tbl name with
        | Some a -> a
        | None ->
          let a =
            { n = 0; dur = Samples.create (); self = Samples.create ();
              words = Samples.create (); self_words = Samples.create () }
          in
          Hashtbl.replace tbl name a;
          a
      in
      let d = en.Samples.a.(i) - st.Samples.a.(i) in
      Samples.add a.dur d;
      Samples.add a.self (max 0 (d - child_dur.(i)));
      Samples.add a.words wds.Samples.a.(i);
      Samples.add a.self_words (max 0 (wds.Samples.a.(i) - child_words.(i)))
    done;
    tbl

  let write path =
    let oc = open_out path in
    for i = 0 to count () - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%s,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d,\"words\":%d}\n"
        i (json_string !name_of.(nm.Samples.a.(i))) st.Samples.a.(i) en.Samples.a.(i)
        par.Samples.a.(i) req.Samples.a.(i) wds.Samples.a.(i)
    done;
    close_out oc
end
