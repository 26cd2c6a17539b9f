(* CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.

   Used by Dirty.Store to checksum snapshot files: the journal records
   the CRC of every file's exact byte content, and load refuses a file
   whose bytes no longer hash to the recorded value.  CRC-32 is not
   cryptographic — it defends against torn writes, truncation and bit
   rot, which is the store's threat model — and it is cheap enough to
   run on every load. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

let update crc s =
  let table = Lazy.force table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = 0 to String.length s - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = update 0 s
let to_hex crc = Printf.sprintf "%08x" (crc land 0xFFFFFFFF)

let of_hex s =
  match int_of_string_opt ("0x" ^ s) with
  | Some v when v >= 0 && v <= 0xFFFFFFFF -> Some v
  | _ -> None
