open Dirty

type violation = Not_single_table | Not_spj of string | Unknown_dirty_table of string

let violation_to_string = function
  | Not_single_table -> "the count distribution requires a single-relation query"
  | Not_spj why -> "query is not select-project: " ^ why
  | Unknown_dirty_table t -> "relation " ^ t ^ " is not a known dirty table"

exception Not_supported of violation list

let check env (q : Sql.Ast.query) =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (match q.from with
  | [ r ] ->
    if env.Dirty_schema.info_of r.table = None then
      add (Unknown_dirty_table r.table)
  | _ -> add Not_single_table);
  if q.outer_joins <> [] then add (Not_spj "outer join present");
  if Sql.Ast.query_has_subqueries q then add (Not_spj "subquery present");
  if q.distinct then add (Not_spj "DISTINCT present");
  if q.group_by <> [] then add (Not_spj "GROUP BY present");
  if q.having <> None then add (Not_spj "HAVING present");
  (match q.select with
  | Star -> ()
  | Items items ->
    if
      List.exists
        (fun (i : Sql.Ast.select_item) -> Sql.Ast.has_aggregates i.expr)
        items
    then add (Not_spj "aggregate present"));
  (match q.where with
  | Some w when Sql.Ast.has_aggregates w -> add (Not_spj "aggregate in WHERE")
  | _ -> ());
  match List.rev !violations with [] -> Ok () | vs -> Error vs

let checked_parts session sql =
  let q = Sql.Parser.parse_query sql in
  let env = Clean.env session in
  (match check env q with Ok () -> () | Error vs -> raise (Not_supported vs));
  let table_ref = List.hd q.from in
  let alias = Option.value ~default:table_ref.table table_ref.t_alias in
  let info = Option.get (env.Dirty_schema.info_of table_ref.table) in
  (q, table_ref, alias, info)

let qualification_probabilities session sql =
  let q, table_ref, alias, info = checked_parts session sql in
  (* per cluster: sum of qualifying tuple probabilities, via the
     engine: SELECT id, SUM(prob) FROM t WHERE W GROUP BY id *)
  let id_col = Sql.Ast.col ~table:alias info.id_attr in
  let prob_col = Sql.Ast.col ~table:alias info.prob_attr in
  let grouped : Sql.Ast.query =
    {
      distinct = false;
      select =
        Items
          [
            { expr = id_col; alias = Some "cluster" };
            { expr = Agg (Sum, Some prob_col); alias = Some "p" };
          ];
      from = [ table_ref ];
      outer_joins = [];
      where = q.where;
      group_by = [ id_col ];
      having = None;
      order_by = [];
      limit = None;
    }
  in
  let result = Engine.Database.query_ast (Clean.engine session) grouped in
  Relation.fold
    (fun acc row ->
      match Value.to_float row.(1) with
      | Some p when p > 0.0 -> (row.(0), Float.min 1.0 p) :: acc
      | _ -> acc)
    [] result
  |> List.rev

(* pmf of a sum of independent Bernoullis (Poisson binomial), by the
   standard convolution DP *)
let poisson_binomial ps =
  let pmf = Array.make (List.length ps + 1) 0.0 in
  pmf.(0) <- 1.0;
  List.iteri
    (fun i p ->
      (* after i+1 variables, counts up to i+1 are possible; iterate
         downwards so each variable is used once *)
      for k = i + 1 downto 1 do
        pmf.(k) <- (pmf.(k) *. (1.0 -. p)) +. (pmf.(k - 1) *. p)
      done;
      pmf.(0) <- pmf.(0) *. (1.0 -. p))
    ps;
  pmf

let count_distribution session sql =
  let ps = List.map snd (qualification_probabilities session sql) in
  poisson_binomial ps

let count_distribution_oracle ?max_candidates session sql =
  let q, table_ref, alias, info = checked_parts session sql in
  let counting : Sql.Ast.query =
    {
      q with
      select =
        Items [ { expr = Sql.Ast.col ~table:alias info.id_attr; alias = None } ];
      from = [ table_ref ];
    }
  in
  let db = Clean.dirty_db session in
  let eval = Candidates.engine_evaluator db counting in
  let max_count =
    Cluster.num_clusters (Dirty_db.find_table db table_ref.table).clustering
  in
  let pmf = Array.make (max_count + 1) 0.0 in
  Candidates.fold ?max_candidates db
    (fun () selection prob ->
      let rows =
        Relation.cardinality
          (Relation.distinct (eval (Candidates.candidate_relations db selection)))
      in
      pmf.(rows) <- pmf.(rows) +. prob)
    ();
  (* trim to the same length convention as the DP (clusters with some
     qualifying tuple) *)
  pmf

let mean pmf =
  let total = ref 0.0 in
  Array.iteri (fun i p -> total := !total +. (float_of_int i *. p)) pmf;
  !total

let variance pmf =
  let m = mean pmf in
  let total = ref 0.0 in
  Array.iteri
    (fun i p ->
      let d = float_of_int i -. m in
      total := !total +. (p *. d *. d))
    pmf;
  !total

let at_least pmf k =
  let total = ref 0.0 in
  Array.iteri (fun i p -> if i >= k then total := !total +. p) pmf;
  !total

type moments = { mean : float; variance : float; std_dev : float }

let sum_moments session sql =
  let q = Sql.Parser.parse_query sql in
  let env = Clean.env session in
  (* the count-distribution checks minus the aggregate restriction *)
  (match q.from, q.outer_joins, q.group_by with
  | [ r ], [], [] ->
    if env.Dirty_schema.info_of r.table = None then
      raise (Not_supported [ Unknown_dirty_table r.table ])
  | _ -> raise (Not_supported [ Not_single_table ]));
  let e =
    match q.select with
    | Items [ { expr = Agg (Sum, Some e); _ } ] when not (Sql.Ast.has_aggregates e) -> e
    | _ ->
      invalid_arg
        "Distribution.sum_moments: the query must select exactly sum(<expr>)"
  in
  let table_ref = List.hd q.from in
  let alias = Option.value ~default:table_ref.table table_ref.t_alias in
  let info = Option.get (env.Dirty_schema.info_of table_ref.table) in
  let id_col = Sql.Ast.col ~table:alias info.id_attr in
  let prob_col = Sql.Ast.col ~table:alias info.prob_attr in
  (* per cluster: E[X_c] and E[X_c^2] *)
  let grouped : Sql.Ast.query =
    {
      distinct = false;
      select =
        Items
          [
            { expr = id_col; alias = Some "cluster" };
            {
              expr = Agg (Sum, Some (Binop (Mul, prob_col, e)));
              alias = Some "ex";
            };
            {
              expr = Agg (Sum, Some (Binop (Mul, prob_col, Binop (Mul, e, e))));
              alias = Some "ex2";
            };
          ];
      from = [ table_ref ];
      outer_joins = [];
      where = q.where;
      group_by = [ id_col ];
      having = None;
      order_by = [];
      limit = None;
    }
  in
  let result = Engine.Database.query_ast (Clean.engine session) grouped in
  let mean = ref 0.0 and variance = ref 0.0 in
  Relation.iter
    (fun row ->
      let ex = Option.value ~default:0.0 (Value.to_float row.(1)) in
      let ex2 = Option.value ~default:0.0 (Value.to_float row.(2)) in
      mean := !mean +. ex;
      variance := !variance +. (ex2 -. (ex *. ex)))
    result;
  let variance = Float.max 0.0 !variance in
  { mean = !mean; variance; std_dev = Float.sqrt variance }
