open Dirty

let tuple_universe db =
  List.concat_map
    (fun (t : Dirty_db.table) ->
      List.init (Relation.cardinality t.relation) (fun i ->
          (t.name, i, Dirty_db.row_probability t i)))
    (Dirty_db.tables db)

let world_count db = Float.pow 2.0 (float_of_int (List.length (tuple_universe db)))

let answers ?(max_worlds = 1_000_000) db query =
  let universe = Array.of_list (tuple_universe db) in
  let n = Array.length universe in
  if Float.pow 2.0 (float_of_int n) > float_of_int max_worlds then
    invalid_arg
      (Printf.sprintf "Independent.answers: 2^%d worlds exceed the limit of %d"
         n max_worlds);
  let tables = Dirty_db.tables db in
  let eval = Candidates.engine_evaluator db query in
  let answers = Relation.Row_tbl.create 64 in
  let schema_ref = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    (* world probability: product over present tuples of p, absent of 1-p *)
    let prob = ref 1.0 in
    for i = 0 to n - 1 do
      let _, _, p = universe.(i) in
      prob := !prob *. (if mask land (1 lsl i) <> 0 then p else 1.0 -. p)
    done;
    if !prob > 0.0 then begin
      (* materialize the world's relations *)
      let world =
        List.map
          (fun (t : Dirty_db.table) ->
            let rows = ref [] in
            for i = n - 1 downto 0 do
              let name, row, _ = universe.(i) in
              if name = t.name && mask land (1 lsl i) <> 0 then
                rows := Relation.get t.relation row :: !rows
            done;
            (t.name, Relation.create (Relation.schema t.relation) !rows))
          tables
      in
      let result = Relation.distinct (eval world) in
      if !schema_ref = None then schema_ref := Some (Relation.schema result);
      Relation.iter
        (fun row ->
          let p = Option.value ~default:0.0 (Relation.Row_tbl.find_opt answers row) in
          Relation.Row_tbl.replace answers row (p +. !prob))
        result
    end
  done;
  let schema =
    match !schema_ref with
    | Some s -> s
    | None ->
      Relation.schema
        (eval (List.map (fun (t : Dirty_db.table) -> (t.name, t.relation)) tables))
  in
  let out_schema =
    Schema.append schema (Schema.make [ (Rewrite.prob_column, Value.TFloat) ])
  in
  let rows =
    Relation.Row_tbl.fold
      (fun row prob acc -> Array.append row [| Value.Float prob |] :: acc)
      answers []
  in
  Relation.sort_by Relation.row_compare (Relation.create out_schema rows)
