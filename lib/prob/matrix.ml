open Dirty

type t = {
  attrs : string list;
  interning : Interning.t;
  symbols : int array array;  (* row -> the m symbols of the tuple, ascending *)
  mass : float array;  (* m copies of 1/m, every row's masses *)
}

(* insertion sort: a row has one symbol per attribute, a dozen or so *)
let sort_small (a : int array) =
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let of_relation ?attrs rel =
  let schema = Relation.schema rel in
  let attrs =
    match attrs with None -> Schema.names schema | Some names -> names
  in
  let indices = Array.of_list (List.map (Schema.index_of schema) attrs) in
  let m = Array.length indices in
  let interning = Interning.create () in
  let rows = Relation.rows rel in
  (* row-major, so symbols are numbered in first-seen order *)
  let symbols = Array.make (Array.length rows) [||] in
  for i = 0 to Array.length rows - 1 do
    let row = rows.(i) in
    let syms = Array.make m 0 in
    for attr = 0 to m - 1 do
      syms.(attr) <- Interning.intern interning ~attr row.(indices.(attr))
    done;
    sort_small syms;
    symbols.(i) <- syms
  done;
  { attrs; interning; symbols; mass = Array.make m (1.0 /. float_of_int m) }

let num_rows t = Array.length t.symbols
let attrs t = t.attrs
let interning t = t.interning

(* symbols are per attribute position, hence distinct within a row *)
let row_dist t i = Infotheory.Dist.of_sorted t.symbols.(i) t.mass
let row_dcf t i = Infotheory.Dcf.make ~weight:1.0 (row_dist t i)

let entry t i ~attr ~value =
  match Interning.find_opt t.interning ~attr value with
  | None -> 0.0
  | Some sym ->
    let syms = t.symbols.(i) in
    if Array.exists (fun s -> s = sym) syms then
      1.0 /. float_of_int (Array.length syms)
    else 0.0
