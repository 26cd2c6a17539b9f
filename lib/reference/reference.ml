open Dirty

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* one FROM entry; while the loops run, [env.(i)] is entry [i]'s row *)
type binding = { alias : string; schema : Schema.t; rows : Relation.row array }

let resolve bindings (c : Sql.Ast.column) =
  let hits =
    List.concat
      (List.mapi
         (fun i b ->
           match (c.table, Schema.index_of_opt b.schema c.name) with
           | Some t, Some j when t = b.alias -> [ (i, j) ]
           | None, Some j -> [ (i, j) ]
           | _ -> [])
         bindings)
  in
  match hits with
  | [ hit ] -> hit
  | [] -> failwith ("unknown column " ^ c.name)
  | _ -> failwith ("ambiguous column " ^ c.name)

(* a compiled scalar, with the innermost FROM position it reads
   (-1 for a literal) *)
let scalar bindings (e : Sql.Ast.expr) =
  match e with
  | Lit v -> ((fun _ -> v), -1)
  | Col c ->
    let i, j = resolve bindings c in
    ((fun (env : Relation.row array) -> env.(i).(j)), i)
  | _ -> unsupported "expression %s" (Sql.Pretty.expr_to_string e)

let comparison (op : Sql.Ast.binop) a b =
  (not (Value.is_null a || Value.is_null b))
  &&
  let c = Value.compare a b in
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Add | Sub | Mul | Div | And | Or -> assert false

(* a WHERE conjunct, with the loop level at which to test it *)
let conjunct bindings (e : Sql.Ast.expr) =
  match e with
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
    let fa, la = scalar bindings a and fb, lb = scalar bindings b in
    ((fun env -> comparison op (fa env) (fb env)), max 0 (max la lb))
  | _ -> unsupported "predicate %s" (Sql.Pretty.expr_to_string e)

let output_names (items : Sql.Ast.select_item list) =
  let taken = Hashtbl.create 8 in
  List.mapi
    (fun i ({ expr; alias } : Sql.Ast.select_item) ->
      let base =
        match (alias, expr) with
        | Some a, _ -> a
        | None, Col c -> c.name
        | None, _ -> Printf.sprintf "expr%d" (i + 1)
      in
      let rec fresh k =
        let name = if k = 1 then base else Printf.sprintf "%s_%d" base k in
        if Hashtbl.mem taken name then fresh (k + 1) else name
      in
      let name = fresh 1 in
      Hashtbl.replace taken name ();
      name)
    items

let output_schema names rows =
  Schema.make
    (List.mapi
       (fun j name ->
         let ty =
           List.find_map (fun (row : Relation.row) -> Value.type_of row.(j)) rows
         in
         (name, Option.value ~default:Value.TString ty))
       names)

let compare_keys desc a b =
  let rec go = function
    | [], [], [] -> 0
    | d :: ds, x :: xs, y :: ys ->
      let c = Value.compare x y in
      if c <> 0 then if d then -c else c else go (ds, xs, ys)
    | _ -> assert false
  in
  go (desc, a, b)

module Rows = Hashtbl.Make (struct
  type t = Relation.row

  let equal a b =
    Array.length a = Array.length b && Array.for_all2 Value.equal a b

  let hash = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7
end)

(* first occurrence of each row, in order *)
let distinct rows =
  let seen = Rows.create 64 in
  List.filter
    (fun (row, _) -> (not (Rows.mem seen row)) && (Rows.add seen row (); true))
    rows

(* the first [n] rows, when that set does not depend on the order of
   unordered or tied rows *)
let limit ~ordered ~desc n rows =
  let kept = List.filteri (fun i _ -> i < n) rows in
  match (List.rev kept, List.nth_opt rows n) with
  | [], _ | _, None -> kept
  | (_, last) :: _, Some (_, next)
    when ordered && compare_keys desc last next <> 0 ->
    kept
  | _ -> unsupported "LIMIT %d cuts an unordered or tied set of rows" n

let eval tables (q : Sql.Ast.query) =
  if q.outer_joins <> [] then unsupported "outer join";
  if q.group_by <> [] || q.having <> None then unsupported "GROUP BY or HAVING";
  if q.from = [] then unsupported "empty FROM";
  let bindings =
    List.map
      (fun ({ table; t_alias } : Sql.Ast.table_ref) ->
        match List.assoc_opt table tables with
        | None -> failwith ("unknown table " ^ table)
        | Some rel ->
          { alias = Option.value ~default:table t_alias;
            schema = Relation.schema rel; rows = Relation.rows rel })
      q.from
  in
  let aliases = List.map (fun b -> b.alias) bindings in
  if List.length (List.sort_uniq String.compare aliases) <> List.length aliases
  then failwith "repeated alias in FROM";
  let n = List.length bindings in
  let levels = Array.make n [] in
  Option.iter
    (fun w ->
      List.iter
        (fun e ->
          let test, level = conjunct bindings e in
          levels.(level) <- levels.(level) @ [ test ])
        (Sql.Ast.conjuncts w))
    q.where;
  let items =
    match q.select with Star -> unsupported "SELECT *" | Items items -> items
  in
  let names = output_names items in
  let exprs = List.map (fun (i : Sql.Ast.select_item) -> i.expr) items in
  let counting = List.for_all (( = ) (Sql.Ast.Agg (Count, None))) exprs in
  let project =
    if counting then [] else List.map (fun e -> fst (scalar bindings e)) exprs
  in
  let desc = List.map (fun (o : Sql.Ast.order_item) -> o.desc) q.order_by in
  let keys =
    List.map
      (fun (o : Sql.Ast.order_item) ->
        (* an unqualified name that is an output column means it *)
        match o.o_expr with
        | Col { table = None; name } when List.mem name names ->
          let j = Option.get (List.find_index (String.equal name) names) in
          fun _ (out : Relation.row) -> out.(j)
        | e ->
          let f, _ = scalar bindings e in
          fun env _ -> f env)
      q.order_by
  in
  if counting && q.order_by <> [] then unsupported "ORDER BY over count-star";
  let scans = Array.of_list (List.map (fun b -> b.rows) bindings) in
  let env = Array.make n [||] in
  let found = ref [] in
  let rec loop level =
    if level = n then begin
      let out = Array.of_list (List.map (fun f -> f env) project) in
      found := (out, List.map (fun k -> k env out) keys) :: !found
    end
    else
      Array.iter
        (fun row ->
          env.(level) <- row;
          if List.for_all (fun test -> test env) levels.(level) then
            loop (level + 1))
        scans.(level)
  in
  loop 0;
  let rows =
    if counting then
      let count = Value.Int (List.length !found) in
      [ (Array.of_list (List.map (fun _ -> count) items), []) ]
    else List.rev !found
  in
  let rows =
    List.stable_sort (fun (_, a) (_, b) -> compare_keys desc a b) rows
  in
  let rows = if q.distinct then distinct rows else rows in
  let rows =
    match q.limit with
    | None -> rows
    | Some k -> limit ~ordered:(q.order_by <> []) ~desc k rows
  in
  let rows = List.map fst rows in
  Relation.create (output_schema names rows) rows
