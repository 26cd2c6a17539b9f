type column = { table : string option; name : string }

type binop =
  | Eq | Neq | Lt | Le | Gt | Ge
  | Add | Sub | Mul | Div
  | And | Or

type unop = Not | Neg

type agg_fun = Count | Sum | Avg | Min | Max

type table_ref = { table : string; t_alias : string option }

type expr =
  | Lit of Dirty.Value.t
  | Col of column
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Like of expr * string
  | Not_like of expr * string
  | In_list of expr * Dirty.Value.t list
  | Between of expr * expr * expr
  | Is_null of expr
  | Is_not_null of expr
  | Agg of agg_fun * expr option
  | In_query of expr * query
  | Exists of query
  | Scalar_subquery of query

and select_item = { expr : expr; alias : string option }
and select_list = Star | Items of select_item list
and order_item = { o_expr : expr; desc : bool }
and outer_join = { oj_table : table_ref; oj_on : expr }

and query = {
  distinct : bool;
  select : select_list;
  from : table_ref list;
  outer_joins : outer_join list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : order_item list;
  limit : int option;
}

let col ?table name = Col { table; name = String.lowercase_ascii name }
let lit_int i = Lit (Dirty.Value.Int i)
let lit_float f = Lit (Dirty.Value.Float f)
let lit_string s = Lit (Dirty.Value.String s)

let conj = function
  | [] -> None
  | e :: es -> Some (List.fold_left (fun acc e' -> Binop (And, acc, e')) e es)

let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* subqueries are opaque scopes: their aggregates and columns are not
   the outer query's *)
let rec has_aggregates = function
  | Agg _ -> true
  | Lit _ | Col _ | Exists _ | Scalar_subquery _ -> false
  | Unop (_, e) | Like (e, _) | Not_like (e, _) | In_list (e, _)
  | Is_null e | Is_not_null e | In_query (e, _) ->
    has_aggregates e
  | Binop (_, a, b) -> has_aggregates a || has_aggregates b
  | Between (a, b, c) -> has_aggregates a || has_aggregates b || has_aggregates c

let rec has_subqueries = function
  | In_query _ | Exists _ | Scalar_subquery _ -> true
  | Lit _ | Col _ | Agg (_, None) -> false
  | Agg (_, Some e)
  | Unop (_, e) | Like (e, _) | Not_like (e, _) | In_list (e, _)
  | Is_null e | Is_not_null e ->
    has_subqueries e
  | Binop (_, a, b) -> has_subqueries a || has_subqueries b
  | Between (a, b, c) -> has_subqueries a || has_subqueries b || has_subqueries c

let query_has_subqueries (q : query) =
  let exprs =
    (match q.select with
    | Star -> []
    | Items items -> List.map (fun i -> i.expr) items)
    @ Option.to_list q.where @ q.group_by @ Option.to_list q.having
    @ List.map (fun o -> o.o_expr) q.order_by
    @ List.map (fun oj -> oj.oj_on) q.outer_joins
  in
  List.exists has_subqueries exprs

let expr_columns e =
  let rec go acc = function
    | Col c -> c :: acc
    | Lit _ -> acc
    (* columns inside a subquery belong to the subquery's own scope *)
    | Exists _ | Scalar_subquery _ -> acc
    | Unop (_, e) | Like (e, _) | Not_like (e, _) | In_list (e, _)
    | Is_null e | Is_not_null e | In_query (e, _) ->
      go acc e
    | Agg (_, Some e) -> go acc e
    | Agg (_, None) -> acc
    | Binop (_, a, b) -> go (go acc a) b
    | Between (a, b, c) -> go (go (go acc a) b) c
  in
  List.rev (go [] e)

let equal_expr (a : expr) (b : expr) = a = b
