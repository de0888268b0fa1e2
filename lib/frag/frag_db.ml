module Comparator = Lsm_util.Comparator
module Hashing = Lsm_util.Hashing
module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Block_cache = Lsm_storage.Block_cache
module Memtable = Lsm_memtable.Memtable
module Sstable = Lsm_sstable.Sstable
module Table_meta = Lsm_sstable.Table_meta
module Table_cache = Lsm_sstable.Table_cache

type config = {
  comparator : Comparator.t;
  write_buffer_size : int;
  level0_limit : int;
  size_ratio : int;
  level1_capacity : int;
  max_fragments_per_guard : int;
  target_file_size : int;
  block_size : int;
  filter : Lsm_filter.Point_filter.policy;
  guard_stride_base : int;
}

let default_config =
  {
    comparator = Comparator.bytewise;
    write_buffer_size = 1 lsl 20;
    level0_limit = 4;
    size_ratio = 4;
    level1_capacity = 4 lsl 20;
    max_fragments_per_guard = 4;
    target_file_size = 1 lsl 20;
    block_size = 4096;
    filter = Lsm_filter.Point_filter.default;
    guard_stride_base = 4096;
  }

let max_levels = 8

type guard = { gkey : string; mutable frags : Table_meta.t list (* newest first *) }

type t = {
  cfg : config;
  dev : Device.t;
  cache : Sstable.cached_block Block_cache.t;
  tables : Table_cache.t;
  mutable mem : Memtable.t;
  mutable l0 : Table_meta.t list;  (** newest first *)
  mutable guards : guard list array;
      (** index 1..max_levels-1; sorted by gkey; slot 0 unused *)
  mutable next_file : int;
  mutable seqno : int;
  mutable clock : int;
  mutable ubytes : int;
  mutable n_compactions : int;
  mutable comp_written : int;
  mutable closed : bool;
}

let create ?(config = default_config) ~dev () =
  let cache = Block_cache.create ~capacity:(8 lsl 20) () in
  {
    cfg = config;
    dev;
    cache;
    tables = Table_cache.create ~cmp:config.comparator ~dev ~cache ();
    mem = Memtable.create ~cmp:config.comparator ();
    l0 = [];
    guards = Array.init max_levels (fun _ -> [ { gkey = ""; frags = [] } ]);
    next_file = 1;
    seqno = 0;
    clock = 0;
    ubytes = 0;
    n_compactions = 0;
    comp_written = 0;
    closed = false;
  }

(* A key is a guard of level [l] when its hash clears the level's stride;
   deeper levels use smaller strides, so guards get denser with depth. *)
(* Floor of 64 bounds guard counts (and the O(guards) bookkeeping per
   insert) even for levels far below the data. *)
let stride t l =
  let rec div s n = if n <= 0 || s <= 64 then max 64 s else div (s / t.cfg.size_ratio) (n - 1) in
  div t.cfg.guard_stride_base (l - 1)

let is_guard_key t l key =
  let h = Int64.to_int (Hashing.string64 ~seed:0x9aadL key) land max_int in
  h mod stride t l = 0

let register_guards t key =
  for l = 1 to max_levels - 1 do
    if is_guard_key t l key then begin
      let gs = t.guards.(l) in
      if not (List.exists (fun g -> String.equal g.gkey key) gs) then begin
        let fresh = { gkey = key; frags = [] } in
        let rec insert = function
          | [] -> [ fresh ]
          | g :: rest when String.compare g.gkey key > 0 -> fresh :: g :: rest
          | g :: rest -> g :: insert rest
        in
        t.guards.(l) <- insert gs
      end
    end
  done

(* ------------------------------------------------------------------ *)

let file_iter t ~cls (f : Table_meta.t) ~use_cache =
  Sstable.iterator (Table_cache.get t.tables f.file_name) ~cls ~use_cache ()

(* Write the filtered stream, cutting files at guard [boundaries] (sorted,
   not including the implicit ""), and at the size target; returns
   (guard_key, meta) pairs. *)
let write_partitioned t ~cls ~boundaries it =
  let cmp = t.cfg.comparator in
  it.Iter.seek_to_first ();
  let out = ref [] in
  let bounds = Array.of_list boundaries in
  let guard_of key =
    (* largest boundary <= key; "" when below all *)
    let lo = ref (-1) and hi = ref (Array.length bounds - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if cmp.Comparator.compare bounds.(mid) key <= 0 then lo := mid else hi := mid - 1
    done;
    if !lo < 0 then "" else bounds.(!lo)
  in
  while it.Iter.valid () do
    let first_key = (it.Iter.entry ()).Entry.key in
    let gkey = guard_of first_key in
    let next_bound =
      (* first boundary strictly greater than gkey *)
      Array.fold_left
        (fun acc b ->
          if cmp.Comparator.compare b gkey > 0 then
            match acc with
            | Some a when cmp.Comparator.compare a b <= 0 -> acc
            | _ -> Some b
          else acc)
        None bounds
    in
    let emitted = ref 0 in
    let stopped = ref false in
    let part =
      {
        Iter.valid = (fun () -> (not !stopped) && it.Iter.valid ());
        entry = (fun () -> it.Iter.entry ());
        next =
          (fun () ->
            if it.Iter.valid () then begin
              emitted := !emitted + Entry.encoded_size (it.Iter.entry ());
              it.Iter.next ();
              if it.Iter.valid () then begin
                let k = (it.Iter.entry ()).Entry.key in
                let crossed =
                  match next_bound with
                  | Some b -> cmp.Comparator.compare k b >= 0
                  | None -> false
                in
                if crossed || !emitted >= t.cfg.target_file_size then stopped := true
              end
            end);
        seek = (fun _ -> invalid_arg "partitioned writer: seek");
        seek_to_first = (fun () -> ());
      }
    in
    let id = t.next_file in
    t.next_file <- t.next_file + 1;
    let name = Printf.sprintf "frag-%06d.sst" id in
    let config =
      {
        Sstable.default_build_config with
        block_size = t.cfg.block_size;
        filter = t.cfg.filter;
      }
    in
    let props = Sstable.build ~config ~cmp ~dev:t.dev ~cls ~name ~created_at:t.clock part in
    let size = Device.size t.dev name in
    out := (gkey, Table_meta.of_props ~file_id:id ~file_name:name ~size props) :: !out
  done;
  List.rev !out

let retire t files =
  List.iter
    (fun (f : Table_meta.t) ->
      Device.delete t.dev f.file_name;
      Table_cache.evict t.tables f.file_name)
    files

(* No snapshots in this engine: compaction keeps just the newest version. *)
let filtered t ~bottom inputs_iter =
  Lsm_core.Merge_filter.filtered ~cmp:t.cfg.comparator ~snapshots:[] ~bottom
    ~range_tombstones:[] inputs_iter

let guard_bounds t l = List.filter_map (fun g -> if g.gkey = "" then None else Some g.gkey) t.guards.(l)

let find_guard t l key =
  let cmp = t.cfg.comparator in
  (* guards sorted ascending, first is ""; find last with gkey <= key *)
  let rec loop best = function
    | [] -> best
    | g :: rest -> if cmp.Comparator.compare g.gkey key <= 0 then loop (Some g) rest else best
  in
  loop None t.guards.(l)

let add_fragment t l (gkey, meta) =
  match List.find_opt (fun g -> String.equal g.gkey gkey) t.guards.(l) with
  | Some g -> g.frags <- meta :: g.frags
  | None ->
    (* The boundary list came from this level, so the guard must exist. *)
    assert false

let level_bytes t l =
  if l = 0 then List.fold_left (fun a (f : Table_meta.t) -> a + f.size) 0 t.l0
  else
    List.fold_left
      (fun a g -> List.fold_left (fun a (f : Table_meta.t) -> a + f.size) a g.frags)
      0 t.guards.(l)

let level_capacity t l =
  let rec grow cap n = if n <= 1 then cap else grow (cap * t.cfg.size_ratio) (n - 1) in
  grow t.cfg.level1_capacity l

let deepest_nonempty t =
  let rec loop l = if l <= 0 then 0 else if level_bytes t l > 0 then l else loop (l - 1) in
  loop (max_levels - 1)

let account_compaction t metas =
  t.n_compactions <- t.n_compactions + 1;
  t.comp_written <-
    t.comp_written + List.fold_left (fun a (_, (m : Table_meta.t)) -> a + m.size) 0 metas

(* Merge all of L0 and partition into L1 guards. *)
let compact_l0 t =
  match t.l0 with
  | [] -> ()
  | inputs ->
    let iters =
      List.map (fun f -> file_iter t ~cls:Io_stats.C_compaction_read f ~use_cache:false) inputs
    in
    let bottom = deepest_nonempty t <= 1 && level_bytes t 1 = 0 in
    let stream = filtered t ~bottom (Iter.merge t.cfg.comparator iters) in
    let metas =
      write_partitioned t ~cls:Io_stats.C_compaction_write ~boundaries:(guard_bounds t 1) stream
    in
    List.iter (add_fragment t 1) metas;
    t.l0 <- [];
    retire t inputs;
    account_compaction t metas

(* Merge one guard of level [l]; partition into level [l+1] (or rewrite in
   place when [l] is the deepest level). *)
let compact_guard t l g =
  match g.frags with
  | [] -> ()
  | inputs ->
    let iters =
      List.map (fun f -> file_iter t ~cls:Io_stats.C_compaction_read f ~use_cache:false) inputs
    in
    let deepest = deepest_nonempty t in
    let in_place = l >= max_levels - 1 || (l >= deepest && level_bytes t l <= level_capacity t l) in
    let target = if in_place then l else l + 1 in
    (* In place: everything below this guard's range is in the inputs. *)
    let bottom =
      target >= deepest
      && (in_place
         ||
         match find_guard t target g.gkey with
         | Some tg -> tg.frags = []
         | None -> true)
    in
    let stream = filtered t ~bottom (Iter.merge t.cfg.comparator iters) in
    let metas =
      write_partitioned t ~cls:Io_stats.C_compaction_write ~boundaries:(guard_bounds t target)
        stream
    in
    g.frags <- [];
    List.iter (add_fragment t target) metas;
    retire t inputs;
    account_compaction t metas

let rec maybe_compact t =
  if List.length t.l0 >= t.cfg.level0_limit then begin
    compact_l0 t;
    maybe_compact t
  end
  else begin
    let worked = ref false in
    for l = 1 to max_levels - 1 do
      if not !worked then begin
        (* Fragment-count trigger: any overfull guard. *)
        (match
           List.find_opt
             (fun g -> List.length g.frags > t.cfg.max_fragments_per_guard)
             t.guards.(l)
         with
        | Some g ->
          compact_guard t l g;
          worked := true
        | None -> ());
        (* Capacity trigger: push the heaviest guard down. *)
        if (not !worked) && l < max_levels - 1 && level_bytes t l > level_capacity t l then begin
          let heaviest =
            List.fold_left
              (fun acc g ->
                let sz = List.fold_left (fun a (f : Table_meta.t) -> a + f.size) 0 g.frags in
                match acc with
                | Some (_, best) when best >= sz -> acc
                | _ -> if sz > 0 then Some (g, sz) else acc)
              None t.guards.(l)
          in
          match heaviest with
          | Some (g, _) ->
            compact_guard t l g;
            worked := true
          | None -> ()
        end
      end
    done;
    if !worked then maybe_compact t
  end

(* ------------------------------------------------------------------ *)

let flush_memtable t =
  if Memtable.count t.mem > 0 then begin
    let stream = filtered t ~bottom:false (Memtable.iterator t.mem) in
    (* L0 fragments are unpartitioned (whole key range). *)
    let metas = write_partitioned t ~cls:Io_stats.C_flush ~boundaries:[] stream in
    List.iter (fun (_, m) -> t.l0 <- m :: t.l0) metas;
    t.mem <- Memtable.create ~cmp:t.cfg.comparator ()
  end

let check_open t = if t.closed then invalid_arg "Frag_db: closed"

let write t e =
  check_open t;
  t.clock <- t.clock + 1;
  Memtable.add t.mem e;
  if Memtable.footprint t.mem >= t.cfg.write_buffer_size then begin
    flush_memtable t;
    maybe_compact t
  end

let put t ~key value =
  t.seqno <- t.seqno + 1;
  t.ubytes <- t.ubytes + String.length key + String.length value;
  register_guards t key;
  write t (Entry.put ~key ~seqno:t.seqno value)

let delete t key =
  t.seqno <- t.seqno + 1;
  t.ubytes <- t.ubytes + String.length key;
  write t (Entry.delete ~key ~seqno:t.seqno)

let probe_frags t ~cls key frags =
  let rec loop = function
    | [] -> None
    | (f : Table_meta.t) :: rest ->
      if
        t.cfg.comparator.Comparator.compare f.min_key key <= 0
        && t.cfg.comparator.Comparator.compare key f.max_key <= 0
      then begin
        match Sstable.get (Table_cache.get t.tables f.file_name) ~cls key with
        | Some e -> Some e
        | None -> loop rest
      end
      else loop rest
  in
  loop frags

let get t key =
  check_open t;
  t.clock <- t.clock + 1;
  let interpret = function
    | Some (e : Entry.t) -> (
      match e.kind with
      | Entry.Put | Entry.Merge -> Some (Some e.value)
      | Entry.Delete | Entry.Single_delete -> Some None
      | Entry.Range_delete -> None)
    | None -> None
  in
  let result =
    match interpret (Memtable.find t.mem key) with
    | Some r -> Some r
    | None -> (
      match interpret (probe_frags t ~cls:Io_stats.C_user_read key t.l0) with
      | Some r -> Some r
      | None ->
        let rec levels l =
          if l >= max_levels then None
          else
            let guard_hit =
              match find_guard t l key with
              | Some g -> interpret (probe_frags t ~cls:Io_stats.C_user_read key g.frags)
              | None -> None
            in
            match guard_hit with Some r -> Some r | None -> levels (l + 1)
        in
        levels 1)
  in
  match result with Some r -> r | None -> None

let scan t ?(limit = max_int) ~lo ~hi () =
  check_open t;
  t.clock <- t.clock + 1;
  let cmp = t.cfg.comparator in
  let overlaps (f : Table_meta.t) =
    cmp.Comparator.compare lo f.max_key <= 0
    && match hi with None -> true | Some h -> cmp.Comparator.compare f.min_key h < 0
  in
  let sources =
    Memtable.iterator t.mem
    :: (List.filter overlaps t.l0
       |> List.map (fun f -> file_iter t ~cls:Io_stats.C_user_read f ~use_cache:true))
    @ List.concat_map
        (fun l ->
          List.concat_map
            (fun g ->
              List.filter overlaps g.frags
              |> List.map (fun f -> file_iter t ~cls:Io_stats.C_user_read f ~use_cache:true))
            t.guards.(l))
        (List.init (max_levels - 1) (fun i -> i + 1))
  in
  let it = Iter.merge cmp sources in
  it.Iter.seek lo;
  let out = ref [] and count = ref 0 in
  let in_range k = match hi with None -> true | Some h -> cmp.Comparator.compare k h < 0 in
  while it.Iter.valid () && !count < limit && in_range (it.Iter.entry ()).Entry.key do
    let key = (it.Iter.entry ()).Entry.key in
    let first = it.Iter.entry () in
    (match first.Entry.kind with
    | Entry.Put | Entry.Merge ->
      out := (key, first.Entry.value) :: !out;
      incr count
    | Entry.Delete | Entry.Single_delete | Entry.Range_delete -> ());
    while it.Iter.valid () && String.equal (it.Iter.entry ()).Entry.key key do
      it.Iter.next ()
    done
  done;
  List.rev !out

let flush t =
  check_open t;
  flush_memtable t;
  maybe_compact t

let close t = t.closed <- true

let guard_count t l = if l >= 1 && l < max_levels then List.length t.guards.(l) else 0

let fragment_count t =
  List.length t.l0
  + Array.fold_left
      (fun acc gs -> acc + List.fold_left (fun a g -> a + List.length g.frags) 0 gs)
      0 t.guards

let compactions t = t.n_compactions
let compaction_bytes_written t = t.comp_written
let user_bytes t = t.ubytes

let write_amplification t =
  let st = Device.stats t.dev in
  let written =
    Io_stats.bytes_written ~cls:Io_stats.C_flush st
    + Io_stats.bytes_written ~cls:Io_stats.C_compaction_write st
  in
  if t.ubytes = 0 then 0.0 else float_of_int written /. float_of_int t.ubytes

let to_kv_store t =
  {
    Lsm_workload.Kv_store.store_name = "pebbles";
    put = (fun ~key value -> put t ~key value);
    get = (fun key -> get t key);
    scan = (fun ~lo ~hi ~limit -> scan t ~limit ~lo ~hi ());
    delete = (fun key -> delete t key);
    rmw =
      (fun ~key operand ->
        let base = Option.value ~default:"" (get t key) in
        put t ~key (base ^ operand));
    flush = (fun () -> flush t);
    quiesce = (fun () -> ());
    io_stats = (fun () -> Device.stats t.dev);
    user_bytes = (fun () -> t.ubytes);
    space_bytes = (fun () -> Device.total_bytes t.dev);
  }
