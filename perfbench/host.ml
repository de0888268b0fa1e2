(* Host fingerprint, process memory and I/O counters, and the
   benchmark's scratch directory [.perfbench/] inside the checkout. *)

let nproc () =
  try
    let ic = Unix.open_process_in "nproc 2>/dev/null" in
    let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
    ignore (Unix.close_process_in ic);
    n
  with _ -> 0

(* One field (in kB) of /proc/<pid>/status, e.g. "VmHWM". *)
let status_kb ?(pid = "self") field =
  try
    let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
    let rec loop () =
      match input_line ic with
      | line ->
        if String.length line > String.length field
           && String.sub line 0 (String.length field + 1) = field ^ ":"
        then begin
          close_in ic;
          Scanf.sscanf (String.sub line (String.length field + 1)
                          (String.length line - String.length field - 1))
            " %d" Fun.id
        end
        else loop ()
      | exception End_of_file -> close_in ic; 0
    in
    loop ()
  with Sys_error _ -> 0

let peak_rss_mb ?pid () = float_of_int (status_kb ?pid "VmHWM") /. 1024.0

(* One counter of /proc/<pid>/io, e.g. "wchar". *)
let io_counter pid field =
  try
    let ic = open_in (Printf.sprintf "/proc/%d/io" pid) in
    let rec loop () =
      match input_line ic with
      | line -> (
        match String.split_on_char ':' line with
        | [ k; v ] when k = field -> close_in ic; int_of_string (String.trim v)
        | _ -> loop ())
      | exception End_of_file -> close_in ic; 0
    in
    loop ()
  with Sys_error _ -> 0

let work_dir = ".perfbench"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh directory under the work dir, unique per process and call. *)
let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d =
      Filename.concat work_dir (Printf.sprintf "tmp/%s-%d-%d" tag (Unix.getpid ()) !n)
    in
    rm_rf d;
    mkdir_p d;
    d

let rec du path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left (fun a e -> a + du (Filename.concat path e)) 0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0
