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

(* SQL LIKE: '%' matches any sequence, '_' any single character.
   Greedy two-pointer match with backtracking to the last '%' only:
   a later '%' can absorb whatever an earlier one would have, so
   retrying the most recent one is enough.  [star] is the pattern
   index of that '%' (-1 before any) and [mark] the string index its
   current match ends at.  Top-level and tail-recursive, so a test
   allocates nothing. *)
let rec only_percents p np i = i >= np || (p.[i] = '%' && only_percents p np (i + 1))

let rec like_from p np s ns i j star mark =
  if j < ns then
    if i < np && p.[i] = '%' then like_from p np s ns (i + 1) j i j
    else if i < np && (p.[i] = '_' || p.[i] = s.[j]) then
      like_from p np s ns (i + 1) (j + 1) star mark
    else if star >= 0 then like_from p np s ns (star + 1) (mark + 1) star (mark + 1)
    else false
  else only_percents p np i (* string consumed: only '%'s may remain *)

let like_matcher pattern =
  let np = String.length pattern in
  fun s -> like_from pattern np s (String.length s) 0 0 (-1) 0

let numeric2 name fint ffloat a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> Value.Int (fint x y)
  | Value.Float x, Value.Float y -> Value.Float (ffloat x y)
  | Value.Float x, Value.Int y -> Value.Float (ffloat x (float_of_int y))
  | Value.Int x, Value.Float y -> Value.Float (ffloat (float_of_int x) y)
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

let mul a b = numeric2 "*" ( * ) ( *. ) a b

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

(* ---- unboxed arithmetic ----

   An [Add]/[Sub]/[Mul] tree whose leaves are Int- or Float-typed
   columns and numeric literals compiles to closures over unboxed
   [int]/[float].  The schema types fix each subtree's kind (int when
   both sides are int, float otherwise), exactly the case split the
   generic [add]/[sub]/[mul] make per value.  Each column leaf still
   checks its constructor at run time; any mismatch (NULL, or a value
   whose constructor is not the schema's type) raises [Mismatch], and
   the row is evaluated again by the generic closure.  So a row either
   takes the unboxed path, where every leaf holds the value the
   generic evaluator would have combined the same way, or the generic
   path itself: results are bitwise the same by construction. *)

exception Mismatch

type arith_kind = Int_kind | Float_kind

let rec arith_kind schema (e : Sql.Ast.expr) =
  match e with
  | Lit (Value.Int _) -> Some Int_kind
  | Lit (Value.Float _) -> Some Float_kind
  | Col c -> (
    match (Schema.attribute_at schema (resolve schema c)).ty with
    | Value.TInt -> Some Int_kind
    | Value.TFloat -> Some Float_kind
    | Value.TBool | Value.TString | Value.TDate -> None)
  | Binop ((Add | Sub | Mul), a, b) -> (
    match arith_kind schema a, arith_kind schema b with
    | Some Int_kind, Some Int_kind -> Some Int_kind
    | Some _, Some _ -> Some Float_kind
    | _ -> None)
  | _ -> None

let rec int_arith schema (e : Sql.Ast.expr) : Relation.row -> int =
  match e with
  | Lit (Value.Int i) -> fun _ -> i
  | Col c ->
    let i = resolve schema c in
    fun row -> (match row.(i) with Value.Int x -> x | _ -> raise_notrace Mismatch)
  | Binop (Add, a, b) ->
    let fa = int_arith schema a and fb = int_arith schema b in
    fun row -> fa row + fb row
  | Binop (Sub, a, b) ->
    let fa = int_arith schema a and fb = int_arith schema b in
    fun row -> fa row - fb row
  | Binop (Mul, a, b) ->
    let fa = int_arith schema a and fb = int_arith schema b in
    fun row -> fa row * fb row
  | _ -> assert false (* [arith_kind] admitted only the cases above *)

(* an operand of a float chain; int ones convert where the generic
   evaluator would, at the operator that meets a float *)
type operand =
  | Float_col of int
  | Int_col of int
  | Const of float
  | Int_tree of (Relation.row -> int)
  | Float_tree of (Relation.row -> float)

(* inlined into the loop below, so a converted int operand is never
   boxed *)
let operand_value o row =
  match o with
  | Float_col i -> (match row.(i) with Value.Float x -> x | _ -> raise_notrace Mismatch)
  | Int_col i -> (
    match row.(i) with Value.Int x -> float_of_int x | _ -> raise_notrace Mismatch)
  | Const c -> c
  | Int_tree f -> float_of_int (f row)
  | Float_tree f -> f row
[@@inline]

(* A float subtree flattens along its left spine into one closure:
   [((x op1 y) op2 z) ...] runs as a loop over the right operands with
   an unboxed accumulator, left to right, as the tree nests. *)
let rec float_arith schema (e : Sql.Ast.expr) : Relation.row -> float =
  let rec spine (e : Sql.Ast.expr) rights =
    match e with
    | Binop (((Add | Sub | Mul) as op), a, b)
      when arith_kind schema e = Some Float_kind ->
      spine a ((op, operand schema b) :: rights)
    | _ -> (operand schema e, rights)
  in
  let head, rights = spine e [] in
  let ops = Array.of_list (List.map fst rights) in
  let args = Array.of_list (List.map snd rights) in
  fun row ->
    let acc = ref (operand_value head row) in
    for k = 0 to Array.length ops - 1 do
      let x = operand_value args.(k) row in
      acc :=
        match ops.(k) with
        | Sql.Ast.Add -> !acc +. x
        | Sql.Ast.Sub -> !acc -. x
        | _ -> !acc *. x
    done;
    !acc

and operand schema (e : Sql.Ast.expr) =
  match e with
  | Lit (Value.Int i) -> Const (float_of_int i)
  | Lit (Value.Float f) -> Const f
  | Col c -> (
    let i = resolve schema c in
    match (Schema.attribute_at schema i).ty with
    | Value.TInt -> Int_col i
    | _ -> Float_col i)
  | _ -> (
    match arith_kind schema e with
    | Some Int_kind -> Int_tree (int_arith schema e)
    | _ -> Float_tree (float_arith schema e))

(* [generic] evaluates [e] (an Add/Sub/Mul node) on boxed values; the
   unboxed closure defers to it on any row it does not cover *)
let arith schema e generic =
  match arith_kind schema e with
  | None -> generic
  | Some Int_kind ->
    let f = int_arith schema e in
    fun row -> (match f row with x -> Value.Int x | exception Mismatch -> generic row)
  | Some Float_kind ->
    let f = float_arith schema e in
    fun row -> (match f row with x -> Value.Float x | exception Mismatch -> generic row)

let rec compile schema (e : Sql.Ast.expr) : Relation.row -> Value.t =
  match e with
  | Binop ((Add | Sub | Mul), _, _) ->
    (* compiled first, so it raises any resolution error *)
    let g = generic schema e in
    arith schema e g
  | _ -> generic schema e

and generic schema (e : Sql.Ast.expr) : Relation.row -> Value.t =
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
