type violation =
  | Not_spj of string
  | Unknown_dirty_table of string
  | Join_without_identifier of Sql.Ast.expr
  | Non_equality_join of Sql.Ast.expr
  | Graph_not_tree of { roots : string list }
  | Repeated_relation of string
  | Root_identifier_not_selected of { root : string; id_attr : string }
  | Unresolved_column of string

let violation_to_string = function
  | Not_spj why -> "query is not select-project-join: " ^ why
  | Unknown_dirty_table t -> "relation " ^ t ^ " is not a known dirty table"
  | Join_without_identifier e ->
    "join does not involve an identifier: " ^ Sql.Pretty.expr_to_string e
  | Non_equality_join e ->
    "cross-relation predicate is not a column equality: "
    ^ Sql.Pretty.expr_to_string e
  | Graph_not_tree { roots } ->
    "join graph is not a tree (roots: " ^ String.concat ", " roots ^ ")"
  | Repeated_relation t -> "relation " ^ t ^ " appears more than once (self-join)"
  | Root_identifier_not_selected { root; id_attr } ->
    Printf.sprintf "identifier %s.%s of the join-graph root is not selected" root
      id_attr
  | Unresolved_column msg -> msg

(* Is the ORDER BY key one of the selected columns?  It survives the
   rewriting's added GROUP BY iff it names a select item: structurally
   equal to the item's expression, or a bare name matching the item's
   alias or selected column name. *)
let order_key_selected (items : Sql.Ast.select_item list)
    (o : Sql.Ast.order_item) =
  List.exists
    (fun (i : Sql.Ast.select_item) ->
      i.expr = o.o_expr
      ||
      match o.o_expr with
      | Col { table = None; name } -> (
        i.alias = Some name
        || match i.expr with Col { name = n; _ } -> n = name | _ -> false)
      | _ -> false)
    items

let spj_violation (q : Sql.Ast.query) =
  if q.distinct then Some "DISTINCT present"
  else if q.outer_joins <> [] then Some "outer join present"
  else if Sql.Ast.query_has_subqueries q then Some "subquery present"
  else if q.group_by <> [] then Some "GROUP BY present"
  else if q.having <> None then Some "HAVING present"
  else if q.select = Sql.Ast.Star then
    (* the rewriting needs an explicit attribute list to group by *)
    Some "SELECT * present (list the attributes explicitly)"
  else if
    (* the rewriting wraps the query in GROUP BY: an ORDER BY key
       survives only if it is one of the grouped (selected) columns *)
    List.exists
      (fun (o : Sql.Ast.order_item) ->
        match q.select with
        | Star -> false
        | Items items -> not (order_key_selected items o))
      q.order_by
  then Some "ORDER BY key not in the select list"
  else if q.limit <> None then
    (* LIMIT truncates per candidate; applied after the grouped
       rewriting it would truncate the set of clean answers instead *)
    Some "LIMIT present"
  else
    let has_agg =
      (match q.select with
      | Star -> false
      | Items items -> List.exists (fun (i : Sql.Ast.select_item) -> Sql.Ast.has_aggregates i.expr) items)
      || Option.fold ~none:false ~some:Sql.Ast.has_aggregates q.where
    in
    if has_agg then Some "aggregate expression present" else None

(* Does the select clause contain the identifier of [alias]?  A
   qualified reference must match the alias; an unqualified one
   matches when the name is the identifier attribute. *)
let selects_identifier (q : Sql.Ast.query) ~alias ~id_attr =
  match q.select with
  | Star -> true
  | Items items ->
    List.exists
      (fun (i : Sql.Ast.select_item) ->
        match i.expr with
        | Col { table = Some t; name } -> t = alias && name = id_attr
        | Col { table = None; name } -> name = id_attr
        | _ -> false)
      items

let check env (q : Sql.Ast.query) =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (match spj_violation q with Some why -> add (Not_spj why) | None -> ());
  (* dirty metadata known for every relation *)
  List.iter
    (fun (r : Sql.Ast.table_ref) ->
      match env.Dirty_schema.info_of r.table with
      | Some _ -> ()
      | None -> add (Unknown_dirty_table r.table))
    q.from;
  (* condition 3: no repeated relation *)
  let tables = List.map (fun (r : Sql.Ast.table_ref) -> r.table) q.from in
  let rec dup = function
    | [] -> ()
    | t :: rest -> (
      if List.mem t rest then add (Repeated_relation t);
      dup (List.filter (fun x -> x <> t) rest))
  in
  dup tables;
  match Join_graph.build env q with
  | exception Join_graph.Unresolved msg ->
    Error (List.rev (Unresolved_column msg :: !violations))
  | graph ->
    List.iter
      (fun (e, kind) ->
        match (kind : Join_graph.join_kind) with
        | Non_id_join _ -> add (Join_without_identifier e)
        | Fk_join _ | Id_id_join _ -> ())
      graph.joins;
    List.iter (fun e -> add (Non_equality_join e)) graph.non_equality;
    if not (Join_graph.is_tree graph) then
      add (Graph_not_tree { roots = Join_graph.roots graph })
    else begin
      let root =
        match Join_graph.roots graph with [ r ] -> r | _ -> assert false
      in
      let root_table =
        List.find_map
          (fun (r : Sql.Ast.table_ref) ->
            let alias = Option.value ~default:r.table r.t_alias in
            if alias = root then Some r.table else None)
          q.from
      in
      match Option.bind root_table env.Dirty_schema.info_of with
      | None -> ()  (* already reported as Unknown_dirty_table *)
      | Some { id_attr; _ } ->
        if not (selects_identifier q ~alias:root ~id_attr) then
          add (Root_identifier_not_selected { root; id_attr })
    end;
    (match !violations with
    | [] -> Ok graph
    | vs -> Error (List.rev vs))

let root graph =
  if not (Join_graph.is_tree graph) then
    invalid_arg "Rewritable.root: join graph is not a tree"
  else match Join_graph.roots graph with
    | [ r ] -> r
    | _ -> assert false
