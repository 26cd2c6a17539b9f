type table = {
  name : string;
  relation : Relation.t;
  id_attr : string;
  prob_attr : string;
  clustering : Cluster.t;
}

exception Invalid of string

let invalidf fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt
let tolerance = 1e-6

module Smap = Map.Make (String)

type t = table Smap.t

let prob_of_value name i = function
  | Value.Int n -> float_of_int n
  | Value.Float f -> f
  | v ->
    invalidf "table %s: row %d has non-numeric probability %s" name i
      (Value.to_string v)

let row_probability table i =
  let idx = Schema.index_of (Relation.schema table.relation) table.prob_attr in
  prob_of_value table.name i (Relation.get table.relation i).(idx)

let cluster_rows table id = Cluster.members table.clustering id

let table_violations ~name ~id_attr ~prob_attr relation clustering =
  let schema = Relation.schema relation in
  match
    (Schema.index_of_opt schema id_attr, Schema.index_of_opt schema prob_attr)
  with
  | None, _ -> [ Printf.sprintf "table %s: missing identifier column %s" name id_attr ]
  | _, None ->
    [ Printf.sprintf "table %s: missing probability column %s" name prob_attr ]
  | Some _, Some pidx ->
    let problems = ref [] in
    let prob i = prob_of_value name i (Relation.get relation i).(pidx) in
    (try
       Cluster.iter
         (fun id members ->
           let sum = ref 0.0 in
           List.iter
             (fun i ->
               let p = prob i in
               if p < -.tolerance || p > 1.0 +. tolerance then
                 problems :=
                   Printf.sprintf
                     "table %s: row %d (cluster %s) probability %g outside [0,1]"
                     name i (Value.to_string id) p
                   :: !problems;
               sum := !sum +. p)
             members;
           if Float.abs (!sum -. 1.0) > tolerance *. float_of_int (List.length members + 1)
           then
             problems :=
               Printf.sprintf
                 "table %s: cluster %s probabilities sum to %g, expected 1"
                 name (Value.to_string id) !sum
               :: !problems)
         clustering
     with Invalid msg -> problems := msg :: !problems);
    List.rev !problems

let make_table ?(validate = true) ~name ~id_attr ~prob_attr relation =
  let id_attr = String.lowercase_ascii id_attr
  and prob_attr = String.lowercase_ascii prob_attr in
  let schema = Relation.schema relation in
  if not (Schema.mem schema id_attr) then
    invalidf "table %s: missing identifier column %s" name id_attr;
  if not (Schema.mem schema prob_attr) then
    invalidf "table %s: missing probability column %s" name prob_attr;
  let clustering = Cluster.of_relation relation ~id_attr in
  if validate then begin
    match table_violations ~name ~id_attr ~prob_attr relation clustering with
    | [] -> ()
    | problem :: _ -> raise (Invalid problem)
  end;
  { name; relation; id_attr; prob_attr; clustering }

let of_clean ~name ~id_attr ?(prob_attr = "prob") relation =
  let schema = Relation.schema relation in
  if Schema.mem schema prob_attr then
    invalidf "table %s: column %s already exists" name prob_attr;
  let schema' = Schema.append schema (Schema.make [ (prob_attr, Value.TFloat) ]) in
  let relation' =
    Relation.map_rows schema'
      (fun row -> Array.append row [| Value.Float 1.0 |])
      relation
  in
  make_table ~name ~id_attr ~prob_attr relation'

let with_probabilities table probs =
  let n = Relation.cardinality table.relation in
  if Array.length probs <> n then
    invalidf "table %s: %d probabilities for %d rows" table.name
      (Array.length probs) n;
  let schema = Relation.schema table.relation in
  let pidx = Schema.index_of schema table.prob_attr in
  let counter = ref (-1) in
  let relation =
    Relation.map_rows schema
      (fun row ->
        incr counter;
        let row' = Array.copy row in
        row'.(pidx) <- Value.Float probs.(!counter);
        row')
      table.relation
  in
  (* the identifier column and the row order are unchanged, so the
     clustering [make_table] would derive is the table's own *)
  (match
     table_violations ~name:table.name ~id_attr:table.id_attr ~prob_attr:table.prob_attr
       relation table.clustering
   with
  | [] -> ()
  | problem :: _ -> raise (Invalid problem));
  { table with relation }

let table_validate table =
  table_violations ~name:table.name ~id_attr:table.id_attr
    ~prob_attr:table.prob_attr table.relation table.clustering

let empty = Smap.empty

let add_table db table =
  if Smap.mem table.name db then invalidf "duplicate table %s" table.name;
  Smap.add table.name table db

let find_table db name = Smap.find name db
let find_table_opt db name = Smap.find_opt name db
let table_names db = List.map fst (Smap.bindings db)
let tables db = List.map snd (Smap.bindings db)
let validate db = List.concat_map table_validate (tables db)

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let propagate ~src ~src_key ~dst ~fk_attr ~out_attr =
  let src_schema = Relation.schema src.relation in
  let key_idx = Schema.index_of src_schema src_key in
  let id_idx = Schema.index_of src_schema src.id_attr in
  let map = Vtbl.create (Relation.cardinality src.relation) in
  Relation.iter
    (fun row ->
      let key = row.(key_idx) in
      if Vtbl.mem map key then
        invalidf "propagate: key %s of table %s is not unique"
          (Value.to_string key) src.name;
      Vtbl.replace map key row.(id_idx))
    src.relation;
  let dst_schema = Relation.schema dst.relation in
  let fk_idx = Schema.index_of dst_schema fk_attr in
  let lookup v = Option.value ~default:Value.Null (Vtbl.find_opt map v) in
  let relation =
    match Schema.index_of_opt dst_schema out_attr with
    | Some out_idx ->
      Relation.map_rows dst_schema
        (fun row ->
          let row' = Array.copy row in
          row'.(out_idx) <- lookup row.(fk_idx);
          row')
        dst.relation
    | None ->
      let id_ty =
        (Schema.attribute_at src_schema id_idx).Schema.ty
      in
      let schema' = Schema.append dst_schema (Schema.make [ (out_attr, id_ty) ]) in
      Relation.map_rows schema'
        (fun row -> Array.append row [| lookup row.(fk_idx) |])
        dst.relation
  in
  make_table ~validate:false ~name:dst.name ~id_attr:dst.id_attr
    ~prob_attr:dst.prob_attr relation
