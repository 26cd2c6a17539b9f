open Dirty

type violation =
  | Self_join of string
  | Unknown_dirty_table of string
  | Distinct_not_supported
  | Having_not_supported
  | Outer_join_not_supported
  | Group_select_mismatch of string
  | Unsupported_aggregate of string
  | Unresolved_column of string

let violation_to_string = function
  | Self_join t -> "relation " ^ t ^ " appears more than once (self-join)"
  | Unknown_dirty_table t -> "relation " ^ t ^ " is not a known dirty table"
  | Distinct_not_supported -> "DISTINCT is not supported"
  | Having_not_supported -> "HAVING is not supported"
  | Outer_join_not_supported -> "outer joins are not supported"
  | Group_select_mismatch what ->
    "non-aggregate select item not in GROUP BY: " ^ what
  | Unsupported_aggregate what -> "unsupported aggregate: " ^ what
  | Unresolved_column msg -> msg

exception Not_supported of violation list

(* classify a select item: a grouping item (no aggregates, must appear
   in GROUP BY) or a supported simple aggregate *)
type item_kind =
  | Group_item
  | Count_star
  | Sum_of of Sql.Ast.expr
  | Avg_of of Sql.Ast.expr

let classify_item group_by (item : Sql.Ast.select_item) =
  match item.expr with
  | Agg (Count, None) -> Ok Count_star
  | Agg (Sum, Some e) when not (Sql.Ast.has_aggregates e) -> Ok (Sum_of e)
  | Agg (Avg, Some e) when not (Sql.Ast.has_aggregates e) -> Ok (Avg_of e)
  | Agg (_, _) ->
    Error (Unsupported_aggregate (Sql.Pretty.expr_to_string item.expr))
  | e when Sql.Ast.has_aggregates e ->
    Error (Unsupported_aggregate (Sql.Pretty.expr_to_string e))
  | e ->
    if List.exists (Sql.Ast.equal_expr e) group_by then Ok Group_item
    else Error (Group_select_mismatch (Sql.Pretty.expr_to_string e))

let check env (q : Sql.Ast.query) =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  if q.distinct then add Distinct_not_supported;
  if q.having <> None then add Having_not_supported;
  if q.outer_joins <> [] then add Outer_join_not_supported;
  if Sql.Ast.query_has_subqueries q then
    add (Unsupported_aggregate "subquery present");
  List.iter
    (fun (r : Sql.Ast.table_ref) ->
      match env.Dirty_schema.info_of r.table with
      | Some _ -> ()
      | None -> add (Unknown_dirty_table r.table))
    q.from;
  let tables = List.map (fun (r : Sql.Ast.table_ref) -> r.table) q.from in
  let rec dup = function
    | [] -> ()
    | t :: rest ->
      if List.mem t rest then add (Self_join t);
      dup (List.filter (fun x -> x <> t) rest)
  in
  dup tables;
  (match q.select with
  | Star -> add (Group_select_mismatch "SELECT *")
  | Items items ->
    List.iter
      (fun item ->
        match classify_item q.group_by item with
        | Ok _ -> ()
        | Error v -> add v)
      items);
  (match q.where with
  | Some w when Sql.Ast.has_aggregates w ->
    add (Unsupported_aggregate "aggregate in WHERE")
  | _ -> ());
  match List.rev !violations with [] -> Ok () | vs -> Error vs

let rewrite env (q : Sql.Ast.query) : Sql.Ast.query =
  let items =
    match q.select with
    | Items items -> items
    | Star -> invalid_arg "Expected.rewrite: SELECT * not supported"
  in
  let product = Rewrite.prob_product env q.from in
  let rewrite_item (item : Sql.Ast.select_item) : Sql.Ast.select_item =
    let with_alias default expr : Sql.Ast.select_item =
      { expr; alias = (match item.alias with Some a -> Some a | None -> Some default) }
    in
    match classify_item q.group_by item with
    | Ok Group_item -> item
    | Ok Count_star -> with_alias "expected_count" (Agg (Sum, Some product))
    | Ok (Sum_of e) ->
      with_alias "expected_sum" (Agg (Sum, Some (Binop (Mul, e, product))))
    | Ok (Avg_of e) ->
      with_alias "expected_avg"
        (Binop
           ( Div,
             Agg (Sum, Some (Binop (Mul, e, product))),
             Agg (Sum, Some product) ))
    | Error v -> invalid_arg ("Expected.rewrite: " ^ violation_to_string v)
  in
  { q with select = Items (List.map rewrite_item items) }

let answers ?config session sql =
  let q = Sql.Parser.parse_query sql in
  let env = Clean.env session in
  match check env q with
  | Error vs -> raise (Not_supported vs)
  | Ok () ->
    Engine.Database.query_ast ?config (Clean.engine session) (rewrite env q)

(* ---- the oracle ---- *)

let answers_oracle ?max_candidates session sql =
  let q = Sql.Parser.parse_query sql in
  let db = Clean.dirty_db session in
  let items =
    match q.select with
    | Items items -> items
    | Star -> invalid_arg "Expected.answers_oracle: SELECT * not supported"
  in
  (* positions of aggregate outputs within the result row *)
  let is_agg =
    Array.of_list
      (List.map (fun (i : Sql.Ast.select_item) -> Sql.Ast.has_aggregates i.expr) items)
  in
  let eval = Candidates.engine_evaluator db q in
  let schema_full =
    Relation.schema
      (eval (List.map (fun (t : Dirty_db.table) -> (t.name, t.relation)) (Dirty_db.tables db)))
  in
  let expectations = Relation.Row_tbl.create 64 in
  let group_of row =
    Array.of_list
      (List.filteri (fun j _ -> not is_agg.(j)) (Array.to_list row))
  in
  Candidates.fold ?max_candidates db
    (fun () selection prob ->
      let result = eval (Candidates.candidate_relations db selection) in
      Relation.iter
        (fun row ->
          let key = group_of row in
          let acc =
            match Relation.Row_tbl.find_opt expectations key with
            | Some acc -> acc
            | None ->
              let acc = Array.make (Array.length row) 0.0 in
              Relation.Row_tbl.add expectations key acc;
              acc
          in
          Array.iteri
            (fun j v ->
              if is_agg.(j) then
                match Value.to_float v with
                | Some x -> acc.(j) <- acc.(j) +. (prob *. x)
                | None -> ())
            row)
        result)
    ();
  let rows =
    Relation.Row_tbl.fold
      (fun key acc out ->
        let row = Array.make (Array.length is_agg) Value.Null in
        let gi = ref 0 in
        Array.iteri
          (fun j agg ->
            if agg then row.(j) <- Value.Float acc.(j)
            else begin
              row.(j) <- key.(!gi);
              incr gi
            end)
          is_agg;
        row :: out)
      expectations []
  in
  Relation.sort_by Relation.row_compare (Relation.create schema_full rows)
