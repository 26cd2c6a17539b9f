open Dirty

(* A finalizer for 63-bit ints: every input bit reaches the low bits a
   slot mask uses. *)
let mix x =
  let x = (x lxor (x lsr 32)) * 0x2545F4914F6CDD1D in
  let x = (x lxor (x lsr 29)) * 0x1CE4E5B9AE5F1 in
  x lxor (x lsr 32)

(* A hash that allocates nothing and agrees with [Value.equal]: an
   integral float in the int range hashes as that int, so [Int 2] and
   [Float 2.0] (and [Float (-0.0)] and [Int 0]) meet; every NaN hashes
   alike.  [Value.hash] would box [float_of_int i] for every int. *)
let hash_value (v : Value.t) =
  match v with
  | Null -> 0x3A4F
  | Bool b -> if b then 0x1B3 else 0x2C1
  | Int i -> mix i
  | Float f ->
    if Float.is_integer f && f >= -0x1p62 && f < 0x1p62 then mix (int_of_float f)
    else if Float.is_nan f then 0x7FF8
    else mix (Int64.to_int (Int64.bits_of_float f))
  | String s -> mix (Hashtbl.hash s)
  | Date d -> mix (d lxor 0x5BD1E995)

(* The distinct keys are numbered in first-occurrence order and sit in
   an open-addressing table of key numbers (linear probing, at most
   half full), sized by the number of distinct keys.  Key [k]'s row
   ids are [row_ids.(offsets.(k)) .. row_ids.(offsets.(k + 1) - 1)],
   ascending.  A probe allocates nothing. *)
type t = {
  attr : string;
  keys : Value.t array;  (** by key number *)
  hashes : int array;  (** [hash_value] of each key *)
  slots : int array;  (** a key number, or -1 for an empty slot *)
  offsets : int array;  (** [distinct_keys + 1] entries *)
  row_ids : int array;
}

(* the slot holding [v] (hash [h]), or the empty slot where it would go *)
let rec slot_of slots mask keys hashes h v i =
  let k = slots.(i) in
  if k < 0 || (hashes.(k) = h && Value.equal keys.(k) v) then i
  else slot_of slots mask keys hashes h v ((i + 1) land mask)

let rec free_slot slots mask i =
  if slots.(i) < 0 then i else free_slot slots mask ((i + 1) land mask)

let grow_to a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let find t v =
  let h = hash_value v in
  let mask = Array.length t.slots - 1 in
  t.slots.(slot_of t.slots mask t.keys t.hashes h v (h land mask))

let build rel attr =
  let col = Schema.index_of (Relation.schema rel) attr in
  let rows = Relation.rows rel in
  let n = Array.length rows in
  (* pass 1: number the distinct keys and count each one's rows *)
  let keys = ref (Array.make 8 Value.Null) and hashes = ref (Array.make 8 0) in
  let counts = ref (Array.make 8 0) in
  let slots = ref (Array.make 16 (-1)) and count = ref 0 in
  for i = 0 to n - 1 do
    if !count = Array.length !keys then begin
      (* double the key capacity; re-place every key in a slot table
         twice that size *)
      let cap = 2 * !count in
      keys := grow_to !keys cap Value.Null;
      hashes := grow_to !hashes cap 0;
      counts := grow_to !counts cap 0;
      let s = Array.make (2 * cap) (-1) and mask = (2 * cap) - 1 in
      for k = 0 to !count - 1 do
        s.(free_slot s mask (!hashes.(k) land mask)) <- k
      done;
      slots := s
    end;
    let v = rows.(i).(col) in
    let h = hash_value v and mask = Array.length !slots - 1 in
    let s = slot_of !slots mask !keys !hashes h v (h land mask) in
    let k = !slots.(s) in
    if k >= 0 then !counts.(k) <- !counts.(k) + 1
    else begin
      let k = !count in
      incr count;
      !slots.(s) <- k;
      !keys.(k) <- v;
      !hashes.(k) <- h;
      !counts.(k) <- 1
    end
  done;
  let t =
    {
      attr;
      keys = Array.sub !keys 0 !count;
      hashes = Array.sub !hashes 0 !count;
      slots = !slots;
      offsets = Array.make (!count + 1) n;
      row_ids = Array.make n 0;
    }
  in
  (* pass 2: [offsets.(k)] starts at the end of key [k]'s run; walking
     the rows backwards fills each run from its end, so it ends at the
     run's start and every run is in row order *)
  let ends = ref 0 in
  for k = 0 to !count - 1 do
    ends := !ends + !counts.(k);
    t.offsets.(k) <- !ends
  done;
  for i = n - 1 downto 0 do
    let k = find t rows.(i).(col) in
    t.offsets.(k) <- t.offsets.(k) - 1;
    t.row_ids.(t.offsets.(k)) <- i
  done;
  t

let attr t = t.attr

let offset t k = t.offsets.(k)
let row_id t p = t.row_ids.(p)

let lookup t v =
  match find t v with
  | -1 -> []
  | k ->
    let first = t.offsets.(k) in
    List.init (t.offsets.(k + 1) - first) (fun j -> t.row_ids.(first + j))

let distinct_keys t = Array.length t.keys
let cardinality t = Array.length t.row_ids
