open Dirty

(* One open-addressing table per attribute position (linear probing,
   at most half full) holds that attribute's symbols; symbols are
   numbered across all the tables in first-seen order.  Values hash
   with [Engine.Index.hash_value], which agrees with [Value.equal] and
   allocates nothing (no key tuple, no boxed float), so a lookup
   allocates nothing. *)

type t = {
  mutable slots : int array array;  (* by attribute: a symbol, or -1 *)
  mutable counts : int array;  (* by attribute: its number of symbols *)
  mutable attrs : int array;  (* by symbol *)
  mutable values : Value.t array;  (* by symbol *)
  mutable hashes : int array;  (* by symbol: [hash_value] of its value *)
  mutable next : int;
}

let create () =
  {
    slots = [||];
    counts = [||];
    attrs = Array.make 64 0;
    values = Array.make 64 Value.Null;
    hashes = Array.make 64 0;
    next = 0;
  }

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* the slot of [slots] holding [v] (hash [h]), or the empty slot where
   it would go *)
let rec slot_of t slots mask h v i =
  let s = slots.(i) in
  if s < 0 || (t.hashes.(s) = h && Value.equal t.values.(s) v) then i
  else slot_of t slots mask h v ((i + 1) land mask)

let rec free_slot slots mask i =
  if slots.(i) < 0 then i else free_slot slots mask ((i + 1) land mask)

(* re-place attribute [attr]'s symbols in a table twice the size *)
let rehash t attr =
  let old = t.slots.(attr) in
  let slots = Array.make (2 * Array.length old) (-1) in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun s -> if s >= 0 then slots.(free_slot slots mask (t.hashes.(s) land mask)) <- s)
    old;
  t.slots.(attr) <- slots

let add_attrs t attr =
  let n = Array.length t.slots in
  t.slots <- Array.init (attr + 1) (fun a -> if a < n then t.slots.(a) else Array.make 16 (-1));
  t.counts <- grow t.counts (attr + 1) 0

let intern t ~attr value =
  if attr >= Array.length t.slots then add_attrs t attr;
  let h = Engine.Index.hash_value value in
  let slots = t.slots.(attr) in
  let mask = Array.length slots - 1 in
  let i = slot_of t slots mask h value (h land mask) in
  if slots.(i) >= 0 then slots.(i)
  else begin
    let sym = t.next in
    t.next <- sym + 1;
    if sym >= Array.length t.attrs then begin
      t.attrs <- grow t.attrs (2 * sym) 0;
      t.values <- grow t.values (2 * sym) Value.Null;
      t.hashes <- grow t.hashes (2 * sym) 0
    end;
    t.attrs.(sym) <- attr;
    t.values.(sym) <- value;
    t.hashes.(sym) <- h;
    slots.(i) <- sym;
    t.counts.(attr) <- t.counts.(attr) + 1;
    if 2 * t.counts.(attr) > Array.length slots then rehash t attr;
    sym
  end

let find_opt t ~attr value =
  if attr < 0 || attr >= Array.length t.slots then None
  else
    let h = Engine.Index.hash_value value in
    let slots = t.slots.(attr) in
    let mask = Array.length slots - 1 in
    let s = slots.(slot_of t slots mask h value (h land mask)) in
    if s < 0 then None else Some s

let size t = t.next
let check t sym = if sym < 0 || sym >= t.next then raise Not_found
let attr_of t sym = check t sym; t.attrs.(sym)
let value_of t sym = check t sym; t.values.(sym)
