open Dirty

type witness = {
  w_alias : string;
  w_table : string;
  w_cluster : Value.t;
  w_probability : float;
}

type contribution = { witnesses : witness list; mass : float; count : int }

type explanation = {
  answer : Relation.row;
  total : float;
  contributions : contribution list;
}

let explain ?config session sql =
  let q = Sql.Parser.parse_query sql in
  let env = Clean.env session in
  (match Rewritable.check env q with
  | Ok _ -> ()
  | Error vs -> raise (Rewrite.Not_rewritable vs));
  let items =
    match q.select with
    | Items items -> items
    | Star -> invalid_arg "Provenance.explain: SELECT * not supported"
  in
  let num_answer_cols = List.length items in
  (* the ungrouped rewriting: answer columns followed by each
     relation's identifier and probability *)
  let relations =
    List.map
      (fun (r : Sql.Ast.table_ref) ->
        let alias = Option.value ~default:r.table r.t_alias in
        let info = Option.get (env.Dirty_schema.info_of r.table) in
        (alias, r.table, info))
      q.from
  in
  let witness_items =
    List.concat_map
      (fun (alias, _, (info : Dirty_schema.table_info)) ->
        [
          ({ expr = Sql.Ast.Col { table = Some alias; name = info.id_attr };
             alias = None }
            : Sql.Ast.select_item);
          { expr = Sql.Ast.Col { table = Some alias; name = info.prob_attr };
            alias = None };
        ])
      relations
  in
  let ungrouped =
    {
      q with
      select = Items (items @ witness_items);
      group_by = [];
      order_by = [];
      limit = None;
    }
  in
  let rel = Engine.Database.query_ast ?config (Clean.engine session) ungrouped in
  let grouped = Relation.Row_tbl.create 64 in
  let order = ref [] in
  Relation.iter
    (fun row ->
      let answer = Array.sub row 0 num_answer_cols in
      let witnesses =
        List.mapi
          (fun i (alias, table, _) ->
            let base = num_answer_cols + (2 * i) in
            {
              w_alias = alias;
              w_table = table;
              w_cluster = row.(base);
              w_probability =
                Option.value ~default:0.0 (Value.to_float row.(base + 1));
            })
          relations
      in
      let mass =
        List.fold_left (fun acc w -> acc *. w.w_probability) 1.0 witnesses
      in
      let c = { witnesses; mass; count = 1 } in
      match Relation.Row_tbl.find_opt grouped answer with
      | Some cs -> Relation.Row_tbl.replace grouped answer (c :: cs)
      | None ->
        Relation.Row_tbl.replace grouped answer [ c ];
        order := answer :: !order)
    rel;
  (* merge contributions whose witness signatures coincide *)
  let merge contributions =
    let signature c =
      List.map
        (fun w -> (w.w_alias, Value.to_string w.w_cluster, w.w_probability))
        c.witnesses
    in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun c ->
        let key = signature c in
        match Hashtbl.find_opt tbl key with
        | Some existing ->
          Hashtbl.replace tbl key
            { existing with mass = existing.mass +. c.mass;
              count = existing.count + c.count }
        | None -> Hashtbl.add tbl key c)
      contributions;
    Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
  in
  List.rev_map
    (fun answer ->
      let contributions =
        List.sort
          (fun a b -> Float.compare b.mass a.mass)
          (merge (Relation.Row_tbl.find grouped answer))
      in
      {
        answer;
        total = List.fold_left (fun acc c -> acc +. c.mass) 0.0 contributions;
        contributions;
      })
    !order
  |> List.sort (fun a b -> Float.compare b.total a.total)

let pp_explanation fmt e =
  Format.fprintf fmt "(%s)  probability %.6g@\n"
    (String.concat ", "
       (Array.to_list (Array.map Value.to_string e.answer)))
    e.total;
  List.iter
    (fun c ->
      Format.fprintf fmt "  %.6g = %s%s@\n" c.mass
        (String.concat " * "
           (List.map
              (fun w ->
                Printf.sprintf "%s[%s @ %g]" w.w_table
                  (Value.to_string w.w_cluster)
                  w.w_probability)
              c.witnesses))
        (if c.count > 1 then Printf.sprintf "  (x%d join tuples)" c.count else ""))
    e.contributions
