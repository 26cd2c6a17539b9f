type severity = Error | Warning

type diagnostic =
  | Missing_column of { table : string; column : string; role : string }
  | Non_numeric_probability of {
      table : string;
      row : int;
      cluster : Value.t;
      value : Value.t;
    }
  | Nan_probability of { table : string; row : int; cluster : Value.t }
  | Probability_out_of_range of {
      table : string;
      row : int;
      cluster : Value.t;
      value : float;
    }
  | Zero_probability of { table : string; row : int; cluster : Value.t }
  | Cluster_sum_mismatch of {
      table : string;
      cluster : Value.t;
      sum : float;
      size : int;
    }
  | Duplicate_tuple of { table : string; cluster : Value.t; rows : int list }
  | Empty_cluster of { table : string; cluster : Value.t }
  | Dangling_reference of {
      table : string;
      row : int;
      attr : string;
      value : Value.t;
      target : string;
    }

let severity = function
  | Missing_column _ | Non_numeric_probability _ | Nan_probability _
  | Probability_out_of_range _ | Cluster_sum_mismatch _ | Empty_cluster _
  | Dangling_reference _ ->
    Error
  | Zero_probability _ | Duplicate_tuple _ -> Warning

let to_string d =
  let tag = match severity d with Error -> "error" | Warning -> "warning" in
  let body =
    match d with
    | Missing_column { table; column; role } ->
      Printf.sprintf "table %s: missing %s column %s" table role column
    | Non_numeric_probability { table; row; cluster; value } ->
      Printf.sprintf "table %s: row %d (cluster %s) has non-numeric probability %s"
        table row (Value.to_string cluster) (Value.to_string value)
    | Nan_probability { table; row; cluster } ->
      Printf.sprintf "table %s: row %d (cluster %s) probability is NaN" table row
        (Value.to_string cluster)
    | Probability_out_of_range { table; row; cluster; value } ->
      Printf.sprintf "table %s: row %d (cluster %s) probability %g outside [0,1]"
        table row (Value.to_string cluster) value
    | Zero_probability { table; row; cluster } ->
      Printf.sprintf "table %s: row %d (cluster %s) has probability 0" table row
        (Value.to_string cluster)
    | Cluster_sum_mismatch { table; cluster; sum; size } ->
      Printf.sprintf
        "table %s: cluster %s probabilities sum to %g (%d tuples), expected 1"
        table (Value.to_string cluster) sum size
    | Duplicate_tuple { table; cluster; rows } ->
      Printf.sprintf "table %s: cluster %s has identical tuples at rows %s" table
        (Value.to_string cluster)
        (String.concat ", " (List.map string_of_int rows))
    | Empty_cluster { table; cluster } ->
      Printf.sprintf "table %s: cluster %s has no tuples" table
        (Value.to_string cluster)
    | Dangling_reference { table; row; attr; value; target } ->
      Printf.sprintf "table %s: row %d foreign key %s = %s names no cluster of %s"
        table row attr (Value.to_string value) target
  in
  tag ^ ": " ^ body

let pp fmt d = Format.pp_print_string fmt (to_string d)

type reference = { ref_table : string; fk_attr : string; target : string }

let tolerance = Dirty_db.tolerance

(* A numeric read of the probability field that never raises. *)
let prob_value row pidx : [ `Prob of float | `Non_numeric of Value.t ] =
  match row.(pidx) with
  | Value.Int n -> `Prob (float_of_int n)
  | Value.Float f -> `Prob f
  | v -> `Non_numeric v

(* Rows of a cluster that agree on every attribute except the
   probability column (the identifier column agrees by construction).
   Grouped by content; each group of >= 2 rows is one diagnostic. *)
let duplicate_groups relation pidx members =
  let module Rtbl = Hashtbl in
  let key i =
    let row = Relation.get relation i in
    let buf = Buffer.create 64 in
    Array.iteri
      (fun j v ->
        if j <> pidx then begin
          Buffer.add_string buf (Value.to_string v);
          Buffer.add_char buf '\x00'
        end)
      row;
    Buffer.contents buf
  in
  let groups : (string, int list) Rtbl.t = Rtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun i ->
      let k = key i in
      (match Rtbl.find_opt groups k with
      | None -> order := k :: !order
      | Some _ -> ());
      Rtbl.replace groups k (i :: Option.value ~default:[] (Rtbl.find_opt groups k)))
    members;
  List.filter_map
    (fun k ->
      match Rtbl.find groups k with
      | [] | [ _ ] -> None
      | rows -> Some (List.rev rows))
    (List.rev !order)

let table_diagnostics (t : Dirty_db.table) =
  let schema = Relation.schema t.relation in
  match
    (Schema.index_of_opt schema t.id_attr, Schema.index_of_opt schema t.prob_attr)
  with
  | None, _ ->
    [ Missing_column { table = t.name; column = t.id_attr; role = "identifier" } ]
  | _, None ->
    [ Missing_column { table = t.name; column = t.prob_attr; role = "probability" } ]
  | Some _, Some pidx ->
    let diags = ref [] in
    let emit d = diags := d :: !diags in
    Cluster.iter
      (fun cluster members ->
        if members = [] then emit (Empty_cluster { table = t.name; cluster })
        else begin
          (* per-row probability checks; the sum is only judged when
             every member has a well-defined finite probability *)
          let sum = ref 0.0 and summable = ref true in
          List.iter
            (fun row ->
              match prob_value (Relation.get t.relation row) pidx with
              | `Non_numeric value ->
                summable := false;
                emit
                  (Non_numeric_probability { table = t.name; row; cluster; value })
              | `Prob p ->
                if Float.is_nan p then begin
                  summable := false;
                  emit (Nan_probability { table = t.name; row; cluster })
                end
                else begin
                  if p < -.tolerance || p > 1.0 +. tolerance then
                    emit
                      (Probability_out_of_range
                         { table = t.name; row; cluster; value = p })
                  else if p = 0.0 then
                    emit (Zero_probability { table = t.name; row; cluster });
                  sum := !sum +. p
                end)
            members;
          if
            !summable
            && Float.abs (!sum -. 1.0)
               > tolerance *. float_of_int (List.length members + 1)
          then
            emit
              (Cluster_sum_mismatch
                 {
                   table = t.name;
                   cluster;
                   sum = !sum;
                   size = List.length members;
                 });
          List.iter
            (fun rows -> emit (Duplicate_tuple { table = t.name; cluster; rows }))
            (duplicate_groups t.relation pidx members)
        end)
      t.clustering;
    List.rev !diags

module Vset = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let reference_diagnostics db { ref_table; fk_attr; target } =
  match (Dirty_db.find_table_opt db ref_table, Dirty_db.find_table_opt db target) with
  | None, _ ->
    [ Missing_column { table = ref_table; column = fk_attr; role = "foreign-key" } ]
  | _, None ->
    [ Missing_column { table = target; column = "(table)"; role = "referenced" } ]
  | Some src, Some dst -> (
    let src_schema = Relation.schema src.relation in
    match Schema.index_of_opt src_schema fk_attr with
    | None ->
      [ Missing_column { table = ref_table; column = fk_attr; role = "foreign-key" } ]
    | Some fk_idx ->
      (* the valid identifiers are the clusters of the target table *)
      let ids = Vset.create 64 in
      Cluster.iter (fun id _ -> Vset.replace ids id ()) dst.clustering;
      let diags = ref [] in
      let row = ref (-1) in
      Relation.iter
        (fun r ->
          incr row;
          let v = r.(fk_idx) in
          if (not (Value.is_null v)) && not (Vset.mem ids v) then
            diags :=
              Dangling_reference
                { table = ref_table; row = !row; attr = fk_attr; value = v; target }
              :: !diags)
        src.relation;
      List.rev !diags)

let db_diagnostics ?(references = []) db =
  List.concat_map table_diagnostics (Dirty_db.tables db)
  @ List.concat_map (reference_diagnostics db) references

let errors = List.filter (fun d -> severity d = Error)
let is_clean diags = errors diags = []
