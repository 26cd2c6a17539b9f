open Ast

let binop_to_string = function
  | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
  | And -> "AND" | Or -> "OR"

let agg_to_string = function
  | Count -> "COUNT" | Sum -> "SUM" | Avg -> "AVG" | Min -> "MIN" | Max -> "MAX"

(* Precedence levels used to decide parenthesization; larger binds
   tighter. *)
let prec_of_binop = function
  | Or -> 1
  | And -> 2
  | Eq | Neq | Lt | Le | Gt | Ge -> 4
  | Add | Sub -> 5
  | Mul | Div -> 6

let prec = function
  | Binop (op, _, _) -> prec_of_binop op
  | Unop (Not, _) -> 3
  | Like _ | Not_like _ | In_list _ | Between _ | Is_null _ | Is_not_null _
  | In_query _ ->
    4
  | Unop (Neg, _) -> 7
  | Lit _ | Col _ | Agg _ | Exists _ | Scalar_subquery _ -> 8

let quote_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

let rec expr_at level e =
  let text = expr_raw e in
  if prec e < level then "(" ^ text ^ ")" else text

and expr_raw = function
  | Lit v -> Dirty.Value.to_sql v
  | Col { table = None; name } -> name
  | Col { table = Some t; name } -> t ^ "." ^ name
  | Unop (Not, e) -> "NOT " ^ expr_at 4 e
  | Unop (Neg, e) ->
    (* avoid "--", which lexes as a line comment *)
    let body = expr_at 8 e in
    if String.length body > 0 && body.[0] = '-' then "-(" ^ body ^ ")"
    else "-" ^ body
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
    (* comparisons and predicates are non-associative in the grammar:
       both operands must be additive-level or parenthesized *)
    expr_at 5 a ^ " " ^ binop_to_string op ^ " " ^ expr_at 5 b
  | Binop (((And | Or) as op), a, b) ->
    (* the grammar parses AND/OR right-associative, so a left-nested
       chain must parenthesize its left child to reparse into the same
       tree *)
    let p = prec_of_binop op in
    expr_at (p + 1) a ^ " " ^ binop_to_string op ^ " " ^ expr_at p b
  | Binop (op, a, b) ->
    let p = prec_of_binop op in
    (* left-associative: the right child needs strictly higher
       precedence to avoid parentheses *)
    expr_at p a ^ " " ^ binop_to_string op ^ " " ^ expr_at (p + 1) b
  | Like (e, pattern) -> expr_at 5 e ^ " LIKE " ^ quote_string pattern
  | Not_like (e, pattern) -> expr_at 5 e ^ " NOT LIKE " ^ quote_string pattern
  | In_list (e, values) ->
    expr_at 5 e ^ " IN ("
    ^ String.concat ", " (List.map Dirty.Value.to_sql values)
    ^ ")"
  | Between (e, lo, hi) ->
    expr_at 5 e ^ " BETWEEN " ^ expr_at 5 lo ^ " AND " ^ expr_at 5 hi
  | Is_null e -> expr_at 5 e ^ " IS NULL"
  | Is_not_null e -> expr_at 5 e ^ " IS NOT NULL"
  | Agg (Count, None) -> "COUNT(*)"
  | Agg (f, None) -> agg_to_string f ^ "(*)"
  | Agg (f, Some e) -> agg_to_string f ^ "(" ^ expr_raw e ^ ")"
  | In_query (e, q) -> expr_at 5 e ^ " IN (" ^ query_text ~sep:" " q ^ ")"
  | Exists q -> "EXISTS (" ^ query_text ~sep:" " q ^ ")"
  | Scalar_subquery q -> "(" ^ query_text ~sep:" " q ^ ")"

and select_item_to_string { expr; alias } =
  match alias with
  | None -> expr_raw expr
  | Some a -> expr_raw expr ^ " AS " ^ a

and table_ref_to_string ({ table; t_alias } : Ast.table_ref) =
  match t_alias with None -> table | Some a -> table ^ " " ^ a

(* [sep] separates the clauses: newline for top-level rendering, a
   space for inline subqueries *)
and query_text ~sep q =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "SELECT ";
  if q.distinct then Buffer.add_string buf "DISTINCT ";
  (match q.select with
  | Star -> Buffer.add_string buf "*"
  | Items items ->
    Buffer.add_string buf
      (String.concat ", " (List.map select_item_to_string items)));
  Buffer.add_string buf (sep ^ "FROM ");
  Buffer.add_string buf (String.concat ", " (List.map table_ref_to_string q.from));
  List.iter
    (fun { oj_table; oj_on } ->
      Buffer.add_string buf
        (sep ^ "LEFT OUTER JOIN " ^ table_ref_to_string oj_table ^ " ON "
        ^ expr_raw oj_on))
    q.outer_joins;
  Option.iter
    (fun w ->
      Buffer.add_string buf (sep ^ "WHERE ");
      Buffer.add_string buf (expr_raw w))
    q.where;
  if q.group_by <> [] then begin
    Buffer.add_string buf (sep ^ "GROUP BY ");
    Buffer.add_string buf (String.concat ", " (List.map expr_raw q.group_by))
  end;
  Option.iter
    (fun h ->
      Buffer.add_string buf (sep ^ "HAVING ");
      Buffer.add_string buf (expr_raw h))
    q.having;
  if q.order_by <> [] then begin
    Buffer.add_string buf (sep ^ "ORDER BY ");
    Buffer.add_string buf
      (String.concat ", "
         (List.map
            (fun { o_expr; desc } -> expr_raw o_expr ^ if desc then " DESC" else "")
            q.order_by))
  end;
  Option.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf "%sLIMIT %d" sep l))
    q.limit;
  Buffer.contents buf

let expr_to_string e = expr_raw e
let query_to_string q = query_text ~sep:"\n" q

let pp_query fmt q = Format.pp_print_string fmt (query_to_string q)
