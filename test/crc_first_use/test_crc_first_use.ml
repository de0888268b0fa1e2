(* The first CRC-32C calls of the process come from several domains at
   once. Lazily built tables raise [Lazy.Undefined] when two domains
   force the same suspension concurrently, so the kernel's tables must
   be ready before any caller can reach them. *)

module Crc32c = Lsm_util.Crc32c

let domains = 4
let input = String.init 4096 (fun i -> Char.chr (i * 31 land 0xff))
(* CRC-32C of [input], computed by a bytewise reference. *)
let expected = 0xd76be2c7l

let () =
  let ready = Atomic.make 0 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < domains do
              Domain.cpu_relax ()
            done;
            match Crc32c.string input with
            | crc -> Ok crc
            | exception e -> Error (Printexc.to_string e)))
  in
  let results = List.map Domain.join workers in
  let bad = List.filter (fun r -> r <> Ok expected) results in
  if bad <> [] then begin
    List.iter
      (function
        | Ok crc -> Printf.printf "crc = 0x%08lx, expected 0x%08lx\n" crc expected
        | Error e -> Printf.printf "first CRC raised %s\n" e)
      bad;
    exit 1
  end
