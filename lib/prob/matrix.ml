open Dirty

type t = {
  attrs : string list;
  interning : Interning.t;
  symbols : int array array;  (* row -> the m symbols of the tuple *)
}

let of_relation ?attrs rel =
  let schema = Relation.schema rel in
  let attrs =
    match attrs with None -> Schema.names schema | Some names -> names
  in
  let indices = List.map (Schema.index_of schema) attrs in
  let interning = Interning.create () in
  let symbols =
    Array.init (Relation.cardinality rel) (fun i ->
        let row = Relation.get rel i in
        Array.of_list
          (List.mapi (fun attr j -> Interning.intern interning ~attr row.(j)) indices))
  in
  { attrs; interning; symbols }

let num_rows t = Array.length t.symbols
let attrs t = t.attrs
let interning t = t.interning

let row_dist t i =
  let syms = t.symbols.(i) in
  let m = Array.length syms in
  (* a tuple may repeat the same (attr,value)? impossible: symbols are
     per attribute position, hence distinct *)
  Infotheory.Dist.of_assoc
    (Array.to_list (Array.map (fun s -> (s, 1.0 /. float_of_int m)) syms))

let row_dcf t i = Infotheory.Dcf.make ~weight:1.0 (row_dist t i)

let entry t i ~attr ~value =
  match Interning.find_opt t.interning ~attr value with
  | None -> 0.0
  | Some sym ->
    let syms = t.symbols.(i) in
    if Array.exists (fun s -> s = sym) syms then
      1.0 /. float_of_int (Array.length syms)
    else 0.0
