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

(* ---- tuples and layouts ----

   Inside a pipeline a row is a tuple: one row per joined input, slot
   0 holding the pipeline's source row.  A layout says where each
   column of a schema is read: its slot and its column there.  A
   materialized row is the one slot of a tuple, under {!rows}. *)

type tuple = Relation.row array

type layout = {
  slots : int array;
  cols : int array;
  whole : bool;  (** every column of slot 0, in order, and nothing else *)
}

let rows n = { slots = Array.make n 0; cols = Array.init n Fun.id; whole = true }

let append l ~slot n =
  {
    slots = Array.append l.slots (Array.make n slot);
    cols = Array.append l.cols (Array.init n Fun.id);
    whole = false;
  }

let narrow l positions =
  {
    slots = Array.map (fun i -> l.slots.(i)) positions;
    cols = Array.map (fun i -> l.cols.(i)) positions;
    whole = false;
  }

(* the reader of column [i]: one closure, one read *)
let cell l i : tuple -> Value.t =
  let s = l.slots.(i) and c = l.cols.(i) in
  fun t -> t.(s).(c)

let gather l : tuple -> Relation.row =
  if l.whole then fun t -> t.(0)
  else
    let slots = l.slots and cols = l.cols in
    let width = Array.length slots in
    fun t ->
      let out = Array.make width Value.Null in
      for j = 0 to width - 1 do
        out.(j) <- t.(slots.(j)).(cols.(j))
      done;
      out

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

let rec int_arith schema layout (e : Sql.Ast.expr) : tuple -> int =
  match e with
  | Lit (Value.Int i) -> fun _ -> i
  | Col c ->
    let i = resolve schema c in
    let s = layout.slots.(i) and c = layout.cols.(i) in
    fun t -> (match t.(s).(c) with Value.Int x -> x | _ -> raise_notrace Mismatch)
  | Binop (Add, a, b) ->
    let fa = int_arith schema layout a and fb = int_arith schema layout b in
    fun t -> fa t + fb t
  | Binop (Sub, a, b) ->
    let fa = int_arith schema layout a and fb = int_arith schema layout b in
    fun t -> fa t - fb t
  | Binop (Mul, a, b) ->
    let fa = int_arith schema layout a and fb = int_arith schema layout b in
    fun t -> fa t * fb t
  | _ -> assert false (* [arith_kind] admitted only the cases above *)

(* an operand of a float chain, a column by its slot and column; int
   ones convert where the generic evaluator would, at the operator that
   meets a float *)
type operand =
  | Float_col of int * int
  | Int_col of int * int
  | Const of float
  | Int_tree of (tuple -> int)
  | Float_tree of (tuple -> float)

(* inlined into the loop below, so a converted int operand is never
   boxed *)
let operand_value o t =
  match o with
  | Float_col (s, c) -> (
    match t.(s).(c) with Value.Float x -> x | _ -> raise_notrace Mismatch)
  | Int_col (s, c) -> (
    match t.(s).(c) with Value.Int x -> float_of_int x | _ -> raise_notrace Mismatch)
  | Const c -> c
  | Int_tree f -> float_of_int (f t)
  | Float_tree f -> f t
[@@inline]

(* A float subtree flattens along its left spine into one closure:
   [((x op1 y) op2 z) ...] runs as a loop over the right operands with
   an unboxed accumulator, left to right, as the tree nests. *)
let rec float_arith schema layout (e : Sql.Ast.expr) : tuple -> float =
  let rec spine (e : Sql.Ast.expr) rights =
    match e with
    | Binop (((Add | Sub | Mul) as op), a, b)
      when arith_kind schema e = Some Float_kind ->
      spine a ((op, operand schema layout b) :: rights)
    | _ -> (operand schema layout e, rights)
  in
  let head, rights = spine e [] in
  let ops = Array.of_list (List.map fst rights) in
  let args = Array.of_list (List.map snd rights) in
  fun t ->
    let acc = ref (operand_value head t) in
    for k = 0 to Array.length ops - 1 do
      let x = operand_value args.(k) t in
      acc :=
        match ops.(k) with
        | Sql.Ast.Add -> !acc +. x
        | Sql.Ast.Sub -> !acc -. x
        | _ -> !acc *. x
    done;
    !acc

and operand schema layout (e : Sql.Ast.expr) =
  match e with
  | Lit (Value.Int i) -> Const (float_of_int i)
  | Lit (Value.Float f) -> Const f
  | Col c -> (
    let i = resolve schema c in
    let s = layout.slots.(i) and c = layout.cols.(i) in
    match (Schema.attribute_at schema i).ty with
    | Value.TInt -> Int_col (s, c)
    | _ -> Float_col (s, c))
  | _ -> (
    match arith_kind schema e with
    | Some Int_kind -> Int_tree (int_arith schema layout e)
    | _ -> Float_tree (float_arith schema layout e))

(* [generic] evaluates [e] (an Add/Sub/Mul node) on boxed values; the
   unboxed closure defers to it on any tuple it does not cover *)
let arith schema layout e generic =
  match arith_kind schema e with
  | None -> generic
  | Some Int_kind ->
    let f = int_arith schema layout e in
    fun t -> (match f t with x -> Value.Int x | exception Mismatch -> generic t)
  | Some Float_kind ->
    let f = float_arith schema layout e in
    fun t -> (match f t with x -> Value.Float x | exception Mismatch -> generic t)

let rec compile schema layout (e : Sql.Ast.expr) : tuple -> Value.t =
  match e with
  | Binop ((Add | Sub | Mul), _, _) ->
    (* compiled first, so it raises any resolution error *)
    let g = generic schema layout e in
    arith schema layout e g
  | _ -> generic schema layout e

and generic schema layout (e : Sql.Ast.expr) : tuple -> Value.t =
  match e with
  | Lit v -> fun _ -> v
  | Col c -> cell layout (resolve schema c)
  | Unop (Not, e) ->
    let f = compile schema layout e in
    fun t ->
      (match f t with
      | Value.Bool b -> Value.Bool (not b)
      | Value.Null -> Value.Bool false
      | v -> type_errorf "NOT: expected boolean, got %s" (Value.to_string v))
  | Unop (Neg, e) ->
    let f = compile schema layout e in
    fun t ->
      (match f t with
      | Value.Int i -> Value.Int (-i)
      | Value.Float x -> Value.Float (-.x)
      | Value.Null -> Value.Null
      | v -> type_errorf "unary -: expected number, got %s" (Value.to_string v))
  | Binop (And, a, b) ->
    let fa = compile schema layout a and fb = compile schema layout b in
    fun t -> Value.Bool (truth (fa t) && truth (fb t))
  | Binop (Or, a, b) ->
    let fa = compile schema layout a and fb = compile schema layout b in
    fun t -> Value.Bool (truth (fa t) || truth (fb t))
  | Binop (Add, a, b) ->
    let fa = compile schema layout a and fb = compile schema layout b in
    fun t -> add (fa t) (fb t)
  | Binop (Sub, a, b) ->
    let fa = compile schema layout a and fb = compile schema layout b in
    fun t -> sub (fa t) (fb t)
  | Binop (Mul, a, b) ->
    let fa = compile schema layout a and fb = compile schema layout b in
    fun t -> mul (fa t) (fb t)
  | Binop (Div, a, b) ->
    let fa = compile schema layout a and fb = compile schema layout b in
    fun t -> div (fa t) (fb t)
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
    let fa = compile schema layout a and fb = compile schema layout b in
    fun t -> comparison op (fa t) (fb t)
  | Like (e, pattern) ->
    let f = compile schema layout e in
    let matcher = like_matcher pattern in
    fun t ->
      (match string_of (f t) with
      | None -> Value.Bool false
      | Some s -> Value.Bool (matcher s))
  | Not_like (e, pattern) ->
    let f = compile schema layout e in
    let matcher = like_matcher pattern in
    fun t ->
      (match string_of (f t) with
      | None -> Value.Bool false
      | Some s -> Value.Bool (not (matcher s)))
  | In_list (e, values) ->
    let f = compile schema layout e in
    fun t ->
      let v = f t in
      if Value.is_null v then Value.Bool false
      else Value.Bool (List.exists (Value.equal v) values)
  | Between (e, lo, hi) ->
    let f = compile schema layout e
    and flo = compile schema layout lo
    and fhi = compile schema layout hi in
    fun t ->
      let v = f t and l = flo t and h = fhi t in
      if Value.is_null v || Value.is_null l || Value.is_null h then Value.Bool false
      else Value.Bool (Value.compare l v <= 0 && Value.compare v h <= 0)
  | Is_null e ->
    let f = compile schema layout e in
    fun t -> Value.Bool (Value.is_null (f t))
  | Is_not_null e ->
    let f = compile schema layout e in
    fun t -> Value.Bool (not (Value.is_null (f t)))
  | Agg _ ->
    type_errorf "aggregate in scalar context: %s" (Sql.Pretty.expr_to_string e)
  | In_query _ | Exists _ | Scalar_subquery _ ->
    (* the executor resolves subqueries before compiling *)
    type_errorf "unresolved subquery: %s" (Sql.Pretty.expr_to_string e)

(* ---- predicates ----

   [compile_pred e] is [fun t -> truth (compile e t)], node for node:
   each case evaluates the same operands in the same order (each
   mirrors its [generic] case's shape, so the compiler orders them
   alike), short-circuits where [generic] does, and raises the same
   [Type_error]s.  What it saves is the boxed [Value.Bool] per node
   and, for a column compared with a literal of the column's schema
   type, the dispatch of [Value.compare]: a cell of that type is
   compared directly, any other cell (NULL among them) by the generic
   rule. *)

(* [op]'s test on a [Value.compare] result *)
let holds (op : Sql.Ast.binop) : int -> bool =
  match op with
  | Eq -> fun c -> c = 0
  | Neq -> fun c -> c <> 0
  | Lt -> fun c -> c < 0
  | Le -> fun c -> c <= 0
  | Gt -> fun c -> c > 0
  | Ge -> fun c -> c >= 0
  | Add | Sub | Mul | Div | And | Or -> assert false

let compares test a b =
  (not (Value.is_null a || Value.is_null b)) && test (Value.compare a b)

(* [compares test cell lit] for the column [c].  When [lit] has the
   column's schema type, a cell of that type is compared directly.  An
   INTEGER literal meets a FLOAT column as its float image only within
   2^53, where [Value.compare] agrees with [Float.compare] on it. *)
let column_vs_literal schema layout test c (lit : Value.t) : tuple -> bool =
  let i = resolve schema c in
  let s = layout.slots.(i) and j = layout.cols.(i) in
  let generic v = compares test v lit in
  let floats k t =
    match t.(s).(j) with Value.Float x -> test (Float.compare x k) | v -> generic v
  in
  match (Schema.attribute_at schema i).ty, lit with
  | TInt, Int k ->
    fun t -> (match t.(s).(j) with Value.Int x -> test (Int.compare x k) | v -> generic v)
  | TDate, Date k ->
    fun t -> (match t.(s).(j) with Value.Date x -> test (Int.compare x k) | v -> generic v)
  | TString, String k ->
    fun t ->
      (match t.(s).(j) with Value.String x -> test (String.compare x k) | v -> generic v)
  | TFloat, Float k -> floats k
  | TFloat, Int k when k >= -(1 lsl 53) && k <= 1 lsl 53 -> floats (float_of_int k)
  | _ -> fun t -> generic t.(s).(j)

(* [x op y] as [y op' x]: only the sign of a comparison matters, and
   [Value.compare] is antisymmetric in sign *)
let flip (op : Sql.Ast.binop) : Sql.Ast.binop =
  match op with Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op

(* the node returns a [Bool] on every tuple it does not raise on *)
let never_null (e : Sql.Ast.expr) =
  match e with
  | Lit (Value.Bool _)
  | Binop ((And | Or | Eq | Neq | Lt | Le | Gt | Ge), _, _)
  | Unop (Not, _) | Like _ | Not_like _ | In_list _ | Between _ | Is_null _ | Is_not_null _
    ->
    true
  | _ -> false

let rec mem_value v = function [] -> false | x :: rest -> Value.equal v x || mem_value v rest

let like_value matcher (v : Value.t) =
  match v with String s -> matcher s | Null -> false | v -> matcher (Value.to_string v)

let rec compile_pred schema layout (e : Sql.Ast.expr) : tuple -> bool =
  match e with
  | Lit (Value.Bool b) -> fun _ -> b
  | Lit Value.Null -> fun _ -> false
  | Unop (Not, a) when never_null a ->
    let p = compile_pred schema layout a in
    fun t -> not (p t)
  | Binop (And, a, b) ->
    let pa = compile_pred schema layout a and pb = compile_pred schema layout b in
    fun t -> pa t && pb t
  | Binop (Or, a, b) ->
    let pa = compile_pred schema layout a and pb = compile_pred schema layout b in
    fun t -> pa t || pb t
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) -> (
    let fa = compile schema layout a and fb = compile schema layout b in
    match a, b with
    | Col c, Lit v -> column_vs_literal schema layout (holds op) c v
    | Lit v, Col c -> column_vs_literal schema layout (holds (flip op)) c v
    | _ ->
      let test = holds op in
      fun t -> compares test (fa t) (fb t))
  | Like (a, pattern) ->
    let f = compile schema layout a in
    let matcher = like_matcher pattern in
    fun t -> like_value matcher (f t)
  | Not_like (a, pattern) ->
    let f = compile schema layout a in
    let matcher = like_matcher pattern in
    fun t -> (match f t with Value.Null -> false | v -> not (like_value matcher v))
  | In_list (a, values) ->
    let f = compile schema layout a in
    fun t ->
      let v = f t in
      (not (Value.is_null v)) && mem_value v values
  | Between (a, lo, hi) -> (
    let f = compile schema layout a
    and flo = compile schema layout lo
    and fhi = compile schema layout hi in
    match a, lo, hi with
    | Col c, Lit l, Lit h ->
      (* [l <= cell] and [cell <= h], each false on NULL, as the whole is *)
      let above = column_vs_literal schema layout (fun x -> x >= 0) c l
      and below = column_vs_literal schema layout (fun x -> x <= 0) c h in
      fun t -> above t && below t
    | _ ->
      fun t ->
        let v = f t and l = flo t and h = fhi t in
        if Value.is_null v || Value.is_null l || Value.is_null h then false
        else Value.compare l v <= 0 && Value.compare v h <= 0)
  | Is_null a ->
    let f = compile schema layout a in
    fun t -> Value.is_null (f t)
  | Is_not_null a ->
    let f = compile schema layout a in
    fun t -> not (Value.is_null (f t))
  | _ ->
    let f = compile schema layout e in
    fun t -> truth (f t)
