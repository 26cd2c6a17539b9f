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

module Keys = struct
  (* Key [k]'s values are [store.(k * arity) .. store.(k * arity +
     arity - 1)] and its hash is [hashes.(k)]; [slots] is an
     open-addressing table of key numbers (-1 = empty), linear probing,
     at most half full.  The capacity is [Array.length hashes]. *)
  type t = {
    arity : int;
    mutable count : int;
    mutable store : Value.t array;
    mutable hashes : int array;
    mutable slots : int array;
  }

  let create arity =
    let cap = 8 in
    {
      arity;
      count = 0;
      store = Array.make (arity * cap) Value.Null;
      hashes = Array.make cap 0;
      slots = Array.make (2 * cap) (-1);
    }

  let count t = t.count

  let hash arity key =
    let h = ref 0 in
    for j = 0 to arity - 1 do
      h := (!h * 0x9E3779B1) + hash_value key.(j)
    done;
    mix !h

  (* keys read from the same stored row are often physically the same
     value, which [Value.equal] would still walk *)
  let rec same_key store kofs key j arity =
    j >= arity
    ||
    let a = store.(kofs + j) and b = key.(j) in
    (a == b || Value.equal a b) && same_key store kofs key (j + 1) arity

  (* the slot holding [key] (hash [h]), or the empty slot where it
     would go; top-level and tail-recursive, so a lookup allocates
     nothing and writes nothing *)
  let rec slot_of t key h i =
    let k = t.slots.(i) in
    if k < 0 || (t.hashes.(k) = h && same_key t.store (k * t.arity) key 0 t.arity) then i
    else slot_of t key h ((i + 1) land (Array.length t.slots - 1))

  let find t key =
    let h = hash t.arity key in
    t.slots.(slot_of t key h (h land (Array.length t.slots - 1)))

  let rec free_slot slots mask i =
    if slots.(i) < 0 then i else free_slot slots mask ((i + 1) land mask)

  (* double the capacity; re-place every key, by its stored hash, in a
     slot table twice that size *)
  let grow t =
    let cap = 2 * t.count in
    let store = Array.make (t.arity * cap) Value.Null and hashes = Array.make cap 0 in
    Array.blit t.store 0 store 0 (t.arity * t.count);
    Array.blit t.hashes 0 hashes 0 t.count;
    let slots = Array.make (2 * cap) (-1) and mask = (2 * cap) - 1 in
    for k = 0 to t.count - 1 do
      slots.(free_slot slots mask (hashes.(k) land mask)) <- k
    done;
    t.store <- store;
    t.hashes <- hashes;
    t.slots <- slots

  let find_or_add t key =
    let h = hash t.arity key in
    let i = slot_of t key h (h land (Array.length t.slots - 1)) in
    let k = t.slots.(i) in
    if k >= 0 then k
    else begin
      let i =
        if t.count < Array.length t.hashes then i
        else begin
          grow t;
          free_slot t.slots (Array.length t.slots - 1) (h land (Array.length t.slots - 1))
        end
      in
      let k = t.count in
      t.count <- k + 1;
      t.slots.(i) <- k;
      t.hashes.(k) <- h;
      Array.blit key 0 t.store (k * t.arity) t.arity;
      k
    end

  let blit t k dst = Array.blit t.store (k * t.arity) dst 0 t.arity
end

type t = { keys : Keys.t; offsets : int array; row_ids : int array }

let of_rows fns rows =
  let n = Array.length rows in
  let keys = Keys.create (Array.length fns) in
  let scratch = Array.make (Array.length fns) Value.Null in
  let kids =
    Array.map
      (fun row ->
        for j = 0 to Array.length fns - 1 do
          scratch.(j) <- fns.(j) row
        done;
        Keys.find_or_add keys scratch)
      rows
  in
  (* [offsets.(k)] starts at the end of key [k]'s run; walking the rows
     backwards fills each run from its end, so it ends at the run's
     start and every run is in row order *)
  let offsets = Array.make (Keys.count keys + 1) 0 in
  Array.iter (fun k -> offsets.(k) <- offsets.(k) + 1) kids;
  for k = 1 to Keys.count keys do
    offsets.(k) <- offsets.(k) + offsets.(k - 1)
  done;
  let row_ids = Array.make n 0 in
  for i = n - 1 downto 0 do
    let k = kids.(i) in
    offsets.(k) <- offsets.(k) - 1;
    row_ids.(offsets.(k)) <- i
  done;
  { keys; offsets; row_ids }

let build rel attr =
  let col = Schema.index_of (Relation.schema rel) attr in
  of_rows [| (fun row -> row.(col)) |] (Relation.rows rel)

let find t key = Keys.find t.keys key

let lookup t key =
  match find t key with
  | -1 -> []
  | k -> List.init (t.offsets.(k + 1) - t.offsets.(k)) (fun j -> t.row_ids.(t.offsets.(k) + j))

let distinct_keys t = Keys.count t.keys
let cardinality t = Array.length t.row_ids
