(* CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.

   Used by Dirty.Store to checksum snapshot files: the journal records
   the CRC of every file's exact byte content, and load refuses a file
   whose bytes no longer hash to the recorded value.  CRC-32 is not
   cryptographic — it defends against torn writes, truncation and bit
   rot, which is the store's threat model — and it is cheap enough to
   run on every load. *)

(* Slicing-by-8: [tables.(k).(n)] is the CRC register after byte [n]
   and then [k] zero bytes, so eight bytes fold in with eight
   independent lookups instead of a chain of eight dependent ones.
   [tables.(0)] is the classic bytewise table. *)
let tables =
  lazy
    (let t0 =
       Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
             else c := !c lsr 1
           done;
           !c)
     in
     let t = Array.make 8 t0 in
     for k = 1 to 7 do
       t.(k) <- Array.map (fun c -> t0.(c land 0xFF) lxor (c lsr 8)) t.(k - 1)
     done;
     t)

let update crc s =
  let t = Lazy.force tables in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let byte i = Char.code (String.unsafe_get s i) in
  let n = String.length s in
  let c = ref ((crc lxor 0xFFFFFFFF) land 0xFFFFFFFF) in
  let i = ref 0 in
  while !i + 8 <= n do
    let p = !i in
    let lo =
      !c lxor (byte p lor (byte (p + 1) lsl 8) lor (byte (p + 2) lsl 16) lor (byte (p + 3) lsl 24))
    in
    c :=
      t7.(lo land 0xFF)
      lxor t6.((lo lsr 8) land 0xFF)
      lxor t5.((lo lsr 16) land 0xFF)
      lxor t4.(lo lsr 24)
      lxor t3.(byte (p + 4))
      lxor t2.(byte (p + 5))
      lxor t1.(byte (p + 6))
      lxor t0.(byte (p + 7));
    i := p + 8
  done;
  for p = !i to n - 1 do
    c := t0.((!c lxor byte p) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = update 0 s
let to_hex crc = Printf.sprintf "%08x" (crc land 0xFFFFFFFF)

let of_hex s =
  match int_of_string_opt ("0x" ^ s) with
  | Some v when v >= 0 && v <= 0xFFFFFFFF -> Some v
  | _ -> None
