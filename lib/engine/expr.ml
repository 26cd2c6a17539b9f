open Dirty

exception Type_error of string
exception Unbound_column of string
exception Ambiguous_column of string

let type_errorf fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let column_display (c : Sql.Ast.column) =
  match c.table with None -> c.name | Some t -> t ^ "." ^ c.name

(* [name] is longer than [suffix] and ends with it; allocates nothing,
   since resolution scans every attribute of a wide joined schema *)
let rec suffix_at name suffix ofs i =
  i = String.length suffix
  || (name.[ofs + i] = suffix.[i] && suffix_at name suffix ofs (i + 1))

let has_proper_suffix ~suffix name =
  let ofs = String.length name - String.length suffix in
  ofs > 0 && suffix_at name suffix ofs 0

let resolve schema (c : Sql.Ast.column) =
  match c.table with
  | Some t -> (
    let qualified = t ^ "." ^ c.name in
    match Schema.index_of_opt schema qualified with
    | Some i -> i
    | None -> (
      (* a bare (un-prefixed) schema still accepts t.c if c is there
         unambiguously; this lets the same expression run against a
         single-table schema *)
      match Schema.index_of_opt schema c.name with
      | Some i -> i
      | None -> raise (Unbound_column (column_display c))))
  | None -> (
    match Schema.index_of_opt schema c.name with
    | Some i -> i
    | None ->
      (* the one attribute named "<alias>.c" *)
      let suffix = "." ^ c.name in
      let found = ref None in
      for i = 0 to Schema.arity schema - 1 do
        if has_proper_suffix ~suffix (Schema.attribute_at schema i).name then
          match !found with
          | None -> found := Some i
          | Some _ -> raise (Ambiguous_column (column_display c))
      done;
      match !found with
      | Some i -> i
      | None -> raise (Unbound_column (column_display c)))

let truth = function
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> type_errorf "expected boolean predicate, got %s" (Value.to_string v)

(* SQL LIKE: '%' matches any sequence, '_' any single character. *)
let like_matcher pattern =
  let p = pattern and np = String.length pattern in
  fun s ->
    let ns = String.length s in
    (* memoized recursion over (pattern index, string index) *)
    let memo = Hashtbl.create 16 in
    let rec go i j =
      match Hashtbl.find_opt memo (i, j) with
      | Some r -> r
      | None ->
        let r =
          if i >= np then j >= ns
          else
            match p.[i] with
            | '%' -> go (i + 1) j || (j < ns && go i (j + 1))
            | '_' -> j < ns && go (i + 1) (j + 1)
            | c -> j < ns && s.[j] = c && go (i + 1) (j + 1)
        in
        Hashtbl.add memo (i, j) r;
        r
    in
    go 0 0

let numeric2 name fint ffloat a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> Value.Int (fint x y)
  | _ -> (
    match Value.to_float a, Value.to_float b with
    | Some x, Some y -> Value.Float (ffloat x y)
    | _ ->
      type_errorf "%s: non-numeric operands %s, %s" name (Value.to_string a)
        (Value.to_string b))

let add a b =
  match a, b with
  | Value.Date d, Value.Int i | Value.Int i, Value.Date d -> Value.Date (d + i)
  | _ -> numeric2 "+" ( + ) ( +. ) a b

let sub a b =
  match a, b with
  | Value.Date d, Value.Int i -> Value.Date (d - i)
  | Value.Date d1, Value.Date d2 -> Value.Int (d1 - d2)
  | _ -> numeric2 "-" ( - ) ( -. ) a b

let mul = numeric2 "*" ( * ) ( *. )

let div a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int _, Value.Int 0 -> type_errorf "division by zero"
  | Value.Int x, Value.Int y -> Value.Int (x / y)
  | _ -> (
    match Value.to_float a, Value.to_float b with
    | Some _, Some 0.0 -> type_errorf "division by zero"
    | Some x, Some y -> Value.Float (x /. y)
    | _ ->
      type_errorf "/: non-numeric operands %s, %s" (Value.to_string a)
        (Value.to_string b))

let comparison op a b =
  if Value.is_null a || Value.is_null b then Value.Bool false
  else
    let c = Value.compare a b in
    let r =
      match op with
      | Sql.Ast.Eq -> c = 0
      | Sql.Ast.Neq -> c <> 0
      | Sql.Ast.Lt -> c < 0
      | Sql.Ast.Le -> c <= 0
      | Sql.Ast.Gt -> c > 0
      | Sql.Ast.Ge -> c >= 0
      | Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul | Sql.Ast.Div | Sql.Ast.And
      | Sql.Ast.Or ->
        assert false
    in
    Value.Bool r

let string_of v =
  match v with
  | Value.String s -> Some s
  | Value.Null -> None
  | v -> Some (Value.to_string v)

let rec compile schema (e : Sql.Ast.expr) : Relation.row -> Value.t =
  match e with
  | Lit v -> fun _ -> v
  | Col c ->
    let i = resolve schema c in
    fun row -> row.(i)
  | Unop (Not, e) ->
    let f = compile schema e in
    fun row ->
      (match f row with
      | Value.Bool b -> Value.Bool (not b)
      | Value.Null -> Value.Bool false
      | v -> type_errorf "NOT: expected boolean, got %s" (Value.to_string v))
  | Unop (Neg, e) ->
    let f = compile schema e in
    fun row ->
      (match f row with
      | Value.Int i -> Value.Int (-i)
      | Value.Float x -> Value.Float (-.x)
      | Value.Null -> Value.Null
      | v -> type_errorf "unary -: expected number, got %s" (Value.to_string v))
  | Binop (And, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun row -> Value.Bool (truth (fa row) && truth (fb row))
  | Binop (Or, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun row -> Value.Bool (truth (fa row) || truth (fb row))
  | Binop (Add, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun row -> add (fa row) (fb row)
  | Binop (Sub, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun row -> sub (fa row) (fb row)
  | Binop (Mul, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun row -> mul (fa row) (fb row)
  | Binop (Div, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun row -> div (fa row) (fb row)
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun row -> comparison op (fa row) (fb row)
  | Like (e, pattern) ->
    let f = compile schema e in
    let matcher = like_matcher pattern in
    fun row ->
      (match string_of (f row) with
      | None -> Value.Bool false
      | Some s -> Value.Bool (matcher s))
  | Not_like (e, pattern) ->
    let f = compile schema e in
    let matcher = like_matcher pattern in
    fun row ->
      (match string_of (f row) with
      | None -> Value.Bool false
      | Some s -> Value.Bool (not (matcher s)))
  | In_list (e, values) ->
    let f = compile schema e in
    fun row ->
      let v = f row in
      if Value.is_null v then Value.Bool false
      else Value.Bool (List.exists (Value.equal v) values)
  | Between (e, lo, hi) ->
    let f = compile schema e and flo = compile schema lo and fhi = compile schema hi in
    fun row ->
      let v = f row and l = flo row and h = fhi row in
      if Value.is_null v || Value.is_null l || Value.is_null h then Value.Bool false
      else Value.Bool (Value.compare l v <= 0 && Value.compare v h <= 0)
  | Is_null e ->
    let f = compile schema e in
    fun row -> Value.Bool (Value.is_null (f row))
  | Is_not_null e ->
    let f = compile schema e in
    fun row -> Value.Bool (not (Value.is_null (f row)))
  | Agg _ ->
    type_errorf "aggregate in scalar context: %s" (Sql.Pretty.expr_to_string e)
  | In_query _ | Exists _ | Scalar_subquery _ ->
    (* the executor resolves subqueries before compiling *)
    type_errorf "unresolved subquery: %s" (Sql.Pretty.expr_to_string e)

let columns_of = Sql.Ast.expr_columns
