(* Tests for the query engine: expression evaluation, operators,
   planner, indexes, statistics. *)

open Dirty

let v_s s = Value.String s
let v_i i = Value.Int i
let v_f f = Value.Float f

let db () =
  let engine = Engine.Database.create () in
  let emp =
    Relation.create
      (Schema.make
         [
           ("eid", Value.TInt);
           ("name", Value.TString);
           ("dept", Value.TInt);
           ("salary", Value.TInt);
         ])
      [
        [| v_i 1; v_s "ann"; v_i 10; v_i 100 |];
        [| v_i 2; v_s "bob"; v_i 10; v_i 200 |];
        [| v_i 3; v_s "carol"; v_i 20; v_i 300 |];
        [| v_i 4; v_s "dan"; v_i 20; v_i 400 |];
        [| v_i 5; v_s "eve"; v_i 30; Value.Null |];
      ]
  in
  let dept =
    Relation.create
      (Schema.make [ ("did", Value.TInt); ("dname", Value.TString) ])
      [
        [| v_i 10; v_s "eng" |];
        [| v_i 20; v_s "sales" |];
        [| v_i 40; v_s "empty" |];
      ]
  in
  Engine.Database.add_relation engine ~name:"emp" emp;
  Engine.Database.add_relation engine ~name:"dept" dept;
  engine

let run ?config sql = Engine.Database.query ?config (db ()) sql

(* ---- expression evaluation ---- *)

let eval_expr expr_sql row schema =
  let e = Sql.Parser.parse_expr expr_sql in
  Engine.Expr.compile schema e row

let one_row_schema = Schema.make [ ("x", Value.TInt); ("y", Value.TFloat); ("s", Value.TString); ("n", Value.TInt) ]
let one_row = [| v_i 6; v_f 2.5; v_s "hello"; Value.Null |]

let check_value msg expected actual =
  if not (Value.equal expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Value.to_string expected)
      (Value.to_string actual)

let test_expr_arithmetic () =
  check_value "int add" (v_i 8) (eval_expr "x + 2" one_row one_row_schema);
  check_value "mixed mul" (v_f 15.0) (eval_expr "x * y" one_row one_row_schema);
  check_value "int div" (v_i 3) (eval_expr "x / 2" one_row one_row_schema);
  check_value "float div" (v_f 2.4) (eval_expr "x / 2.5" one_row one_row_schema);
  check_value "neg" (v_i (-6)) (eval_expr "-x" one_row one_row_schema);
  check_value "null propagates" Value.Null (eval_expr "n + 1" one_row one_row_schema)

let test_expr_division_by_zero () =
  match eval_expr "x / 0" one_row one_row_schema with
  | exception Engine.Expr.Type_error _ -> ()
  | _ -> Alcotest.fail "division by zero accepted"

let test_expr_comparisons () =
  check_value "lt" (Value.Bool true) (eval_expr "x < 10" one_row one_row_schema);
  check_value "between" (Value.Bool true)
    (eval_expr "x between 5 and 7" one_row one_row_schema);
  check_value "null comparison false" (Value.Bool false)
    (eval_expr "n > 0" one_row one_row_schema);
  check_value "is null" (Value.Bool true) (eval_expr "n is null" one_row one_row_schema);
  check_value "in list" (Value.Bool true)
    (eval_expr "s in ('hello', 'world')" one_row one_row_schema)

let test_expr_like () =
  let m = Engine.Expr.like_matcher in
  Alcotest.(check bool) "prefix" true (m "he%" "hello");
  Alcotest.(check bool) "suffix" true (m "%llo" "hello");
  Alcotest.(check bool) "infix" true (m "%ell%" "hello");
  Alcotest.(check bool) "underscore" true (m "h_llo" "hello");
  Alcotest.(check bool) "no match" false (m "h_llo" "heello");
  Alcotest.(check bool) "exact" true (m "hello" "hello");
  Alcotest.(check bool) "empty pattern" false (m "" "x");
  Alcotest.(check bool) "percent only" true (m "%" "");
  Alcotest.(check bool) "multi wildcard" true (m "%a%b%" "xxaxxbxx")

(* The LIKE matcher before it stopped allocating: memoized recursion
   over (pattern index, string index).  The property below checks the
   allocation-free matcher against it. *)
let memo_like pattern s =
  let np = String.length pattern and ns = String.length s in
  let memo = Hashtbl.create 16 in
  let rec go i j =
    match Hashtbl.find_opt memo (i, j) with
    | Some r -> r
    | None ->
      let r =
        if i >= np then j >= ns
        else
          match pattern.[i] with
          | '%' -> go (i + 1) j || (j < ns && go i (j + 1))
          | '_' -> j < ns && go (i + 1) (j + 1)
          | c -> j < ns && s.[j] = c && go (i + 1) (j + 1)
      in
      Hashtbl.add memo (i, j) r;
      r
  in
  go 0 0

let prop_like_matches_memo =
  let word alphabet max_len =
    QCheck.Gen.(string_size ~gen:(oneofl alphabet) (int_range 0 max_len))
  in
  QCheck.Test.make ~count:3000 ~name:"LIKE agrees with the memoized matcher"
    QCheck.(
      make ~print:Print.(pair string string)
        (Gen.pair (word [ 'a'; 'b'; '%'; '_' ] 7) (word [ 'a'; 'b' ] 9)))
    (fun (pattern, s) -> Engine.Expr.like_matcher pattern s = memo_like pattern s)

(* ---- unboxed arithmetic ----

   [Expr.compile] runs Add/Sub/Mul trees over Int/Float-typed columns
   unboxed.  Compiled against the same column names typed VARCHAR, the
   tree takes the generic boxed evaluator at every column node, so the
   two must agree bit for bit on any row: values of the declared type,
   NULL, dates, values of the other numeric type (a schema that does
   not match its values), ints beyond 2^53 and overflowing ones. *)

let arith_value_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map v_i (int_range (-5) 5));
        ( 2,
          map v_i
            (oneofl
               [ 1 lsl 53; (1 lsl 53) + 1; -(1 lsl 53) - 1; max_int; min_int; 1 lsl 40 ]) );
        (3, map v_f (float_range (-10.0) 10.0));
        ( 2,
          map v_f (oneofl [ -0.0; 0.0; Float.nan; Float.infinity; 1e308; 0.1; 9007199254740993.0 ]) );
        (1, return Value.Null);
        (1, map (fun d -> Value.Date d) (int_range 0 20000));
      ])

let arith_expr_gen ncols =
  QCheck.Gen.(
    sized_size (int_range 1 4)
    @@ fix (fun self depth ->
           let leaf =
             frequency
               [
                 ( 4,
                   map
                     (fun i -> Sql.Ast.Col { table = None; name = Printf.sprintf "c%d" i })
                     (int_range 0 (ncols - 1)) );
                 (1, map (fun v -> Sql.Ast.Lit v) arith_value_gen);
               ]
           in
           if depth = 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 ( 3,
                   map3
                     (fun op a b -> Sql.Ast.Binop (op, a, b))
                     (oneofl [ Sql.Ast.Add; Sql.Ast.Sub; Sql.Ast.Mul ])
                     (self (depth - 1)) (self (depth - 1)) );
               ]))

(* a cell usually of its column's declared type, sometimes anything *)
let cell_gen ty =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          match ty with
          | Value.TInt -> map v_i (oneof [ int_range (-9) 9; oneofl [ max_int; 1 lsl 53 ] ])
          | _ -> map v_f (float_range (-10.0) 10.0) );
        (1, arith_value_gen);
      ])

let arith_case_gen =
  let ncols = 3 in
  QCheck.Gen.(
    let* tys = list_repeat ncols (oneofl [ Value.TInt; Value.TFloat ]) in
    let* e = arith_expr_gen ncols in
    let* rows =
      list_size (int_range 1 12)
        (map Array.of_list (flatten_l (List.map cell_gen tys)))
    in
    return (tys, e, rows))

let bits_equal a b =
  match (a : Value.t), (b : Value.t) with
  | Float x, Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Int x, Int y -> x = y
  | Date x, Date y -> x = y
  | Null, Null -> true
  | _ -> false

let eval_result f row =
  match f row with v -> Ok v | exception Engine.Expr.Type_error m -> Error m

let prop_unboxed_arith =
  QCheck.Test.make ~count:1000 ~name:"unboxed arithmetic = generic, bitwise"
    QCheck.(
      make
        ~print:(fun (tys, e, rows) ->
          Printf.sprintf "%s over [%s] rows %s"
            (Sql.Pretty.expr_to_string e)
            (String.concat ", " (List.map Value.ty_name tys))
            (String.concat "; "
               (List.map
                  (fun r -> String.concat "," (Array.to_list (Array.map Value.to_sql r)))
                  rows)))
        arith_case_gen)
    (fun (tys, e, rows) ->
      let names = List.mapi (fun i _ -> Printf.sprintf "c%d" i) tys in
      let typed = Engine.Expr.compile (Schema.make (List.combine names tys)) e in
      let boxed =
        Engine.Expr.compile
          (Schema.make (List.map (fun n -> (n, Value.TString)) names))
          e
      in
      List.for_all
        (fun row ->
          match eval_result typed row, eval_result boxed row with
          | Ok a, Ok b when bits_equal a b -> true
          | Error a, Error b when a = b -> true
          | _ ->
            QCheck.Test.fail_reportf "row %s differs"
              (String.concat "," (Array.to_list (Array.map Value.to_sql row))))
        rows)

(* ---- compiled predicates ----

   [Expr.compile_pred] must be [truth] of [Expr.compile], node for
   node: the same bool, or the same [Type_error], on every row.  Trees
   of AND/OR/NOT, comparisons, BETWEEN, IN lists, LIKE, IS [NOT] NULL,
   bare values and sums, over cells of every type and NULL.  Schema
   types are drawn separately from the cells, so the typed comparisons
   meet cells of other types too. *)

(* a cell of type [ty], from a small domain so that equal values meet *)
let cell_of_ty (ty : Value.ty) =
  let open QCheck.Gen in
  match ty with
  | TInt -> map v_i (int_range (-3) 3)
  | TFloat -> map v_f (oneofl [ -0.0; 0.0; Float.nan; 1.5; 2.0; -1.0; 3.0; 0x1p53 ])
  | TString -> map v_s (oneofl [ ""; "a"; "ab"; "b"; "ba" ])
  | TDate -> map (fun d -> Value.Date d) (int_range (-2) 2)
  | TBool -> map (fun b -> Value.Bool b) bool

let pred_cell_gen =
  let open QCheck.Gen in
  frequency
    [
      (6, oneofl Value.[ TInt; TFloat; TString; TDate; TBool ] >>= cell_of_ty);
      (1, oneofl [ v_i max_int; v_i (1 lsl 53); v_i ((1 lsl 53) + 1); v_i 2 ]);
      (1, return Value.Null);
    ]

let pred_arity = 4

(* literals lean to the schema types of the columns, so the typed
   comparisons run often *)
let pred_gen (tys : Value.ty array) =
  let open QCheck.Gen in
  let value : Sql.Ast.expr t =
    oneof
      [
        map (fun i -> Sql.Ast.Col { table = None; name = Printf.sprintf "c%d" i })
          (int_range 0 (pred_arity - 1));
        map (fun v -> Sql.Ast.Lit v)
          (frequency [ (2, oneofa tys >>= cell_of_ty); (1, pred_cell_gen) ]);
      ]
  in
  let operand = frequency [ (4, value); (1, map2 (fun a b -> Sql.Ast.Binop (Add, a, b)) value value) ] in
  let cmp = oneofl Sql.Ast.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  let pattern = oneofl [ "%"; "a%"; "%b"; "_"; "a_"; "%a%"; "" ] in
  (* a column against literals of its own type, or against a column *)
  let typed =
    let* i = int_range 0 (pred_arity - 1) in
    let col = Sql.Ast.Col { table = None; name = Printf.sprintf "c%d" i } in
    let lit =
      map (fun v -> Sql.Ast.Lit v) (frequency [ (3, cell_of_ty tys.(i)); (1, pred_cell_gen) ])
    in
    oneof
      [
        map2 (fun op l -> Sql.Ast.Binop (op, col, l)) cmp lit;
        map2 (fun op l -> Sql.Ast.Binop (op, l, col)) cmp lit;
        map2 (fun l h -> Sql.Ast.Between (col, l, h)) lit lit;
        map2 (fun op j -> Sql.Ast.Binop (op, col, Col { table = None; name = Printf.sprintf "c%d" j }))
          cmp (int_range 0 (pred_arity - 1));
      ]
  in
  fix
    (fun self depth ->
      let leaf =
        [
          (3, typed);
          (3, map3 (fun op a b -> Sql.Ast.Binop (op, a, b)) cmp operand operand);
          (2, map3 (fun a l h -> Sql.Ast.Between (a, l, h)) operand operand operand);
          ( 1,
            map2 (fun a vs -> Sql.Ast.In_list (a, vs)) operand (list_size (int_range 0 3) pred_cell_gen)
          );
          (1, map2 (fun a p -> Sql.Ast.Like (a, p)) operand pattern);
          (1, map2 (fun a p -> Sql.Ast.Not_like (a, p)) operand pattern);
          (1, map (fun a -> Sql.Ast.Is_null a) operand);
          (1, map (fun a -> Sql.Ast.Is_not_null a) operand);
          (1, operand);
        ]
      in
      if depth = 0 then frequency leaf
      else
        frequency
          (leaf
          @ [
              (2, map2 (fun a b -> Sql.Ast.Binop (And, a, b)) (self (depth - 1)) (self (depth - 1)));
              (2, map2 (fun a b -> Sql.Ast.Binop (Or, a, b)) (self (depth - 1)) (self (depth - 1)));
              (2, map (fun a -> Sql.Ast.Unop (Not, a)) (self (depth - 1)));
            ]))
    3

(* cells mostly of their column's schema type *)
let pred_case_gen =
  let open QCheck.Gen in
  let* tys =
    array_repeat pred_arity (oneofl Value.[ TInt; TFloat; TString; TDate; TBool ])
  in
  let* e = pred_gen tys in
  let cell ty = frequency [ (3, cell_of_ty ty); (1, pred_cell_gen) ] in
  let* rows =
    list_size (int_range 1 12)
      (flatten_a (Array.map cell tys))
  in
  return (Array.to_list tys, e, rows)

let prop_compile_pred =
  QCheck.Test.make ~count:2000 ~name:"compile_pred = truth of compile, errors included"
    QCheck.(
      make
        ~print:(fun (tys, e, rows) ->
          Printf.sprintf "%s over [%s] rows %s"
            (Sql.Pretty.expr_to_string e)
            (String.concat ", " (List.map Value.ty_name tys))
            (String.concat "; "
               (List.map
                  (fun r -> String.concat "," (Array.to_list (Array.map Value.to_sql r)))
                  rows)))
        pred_case_gen)
    (fun (tys, e, rows) ->
      let schema =
        Schema.make (List.mapi (fun i ty -> (Printf.sprintf "c%d" i, ty)) tys)
      in
      let compiled f =
        match f schema e with
        | p -> fun row -> (match p row with b -> Ok b | exception Engine.Expr.Type_error m -> Error m)
        | exception Engine.Expr.Type_error m -> fun _ -> Error ("compile: " ^ m)
      in
      let reference =
        compiled (fun schema e ->
            let f = Engine.Expr.compile schema e in
            fun row -> Engine.Expr.truth (f row))
      and pred = compiled Engine.Expr.compile_pred in
      List.for_all
        (fun row ->
          reference row = pred row
          || QCheck.Test.fail_reportf "row %s: %s, compile_pred %s"
               (String.concat "," (Array.to_list (Array.map Value.to_sql row)))
               (match reference row with Ok b -> string_of_bool b | Error m -> m)
               (match pred row with Ok b -> string_of_bool b | Error m -> m))
        rows)

(* a FLOAT column against INTEGER literals around 2^53, where an int
   and its float image part: [Value.compare] compares them exactly *)
let test_compile_pred_float_int_edge () =
  let schema = Schema.make [ ("f", Value.TFloat) ] in
  let two53 = 1 lsl 53 in
  List.iter
    (fun (sql, cell) ->
      let e = Sql.Parser.parse_expr sql in
      let f = Engine.Expr.compile schema e in
      Alcotest.(check bool)
        (Printf.sprintf "%s over %s" sql (Value.to_sql cell))
        (Engine.Expr.truth (f [| cell |]))
        (Engine.Expr.compile_pred schema e [| cell |]))
    (List.concat_map
       (fun k ->
         List.map
           (fun op -> (Printf.sprintf "f %s %d" op k, v_f (float_of_int two53)))
           [ "="; "<>"; "<"; "<="; ">"; ">=" ])
       [ two53 - 1; two53; two53 + 1; -two53 - 1; max_int ])

let test_arith_mismatched_schema () =
  (* declared INTEGER, FLOAT and NULL values: every row falls back *)
  let schema = Schema.make [ ("a", Value.TInt); ("b", Value.TInt) ] in
  let f = Engine.Expr.compile schema (Sql.Parser.parse_expr "a * b + 1") in
  check_value "floats under an int schema" (v_f 4.0) (f [| v_f 1.5; v_f 2.0 |]);
  check_value "null under an int schema" Value.Null (f [| Value.Null; v_i 2 |]);
  check_value "ints wrap" (v_i min_int) (f [| v_i max_int; v_i 1 |]);
  check_value "date + int" (Value.Date 11)
    (Engine.Expr.compile
       (Schema.make [ ("d", Value.TInt) ])
       (Sql.Parser.parse_expr "d + 1")
       [| Value.Date 10 |])

let test_expr_resolution_errors () =
  let schema = Schema.make [ ("t.a", Value.TInt); ("u.a", Value.TInt) ] in
  (match Engine.Expr.resolve schema { table = None; name = "a" } with
  | exception Engine.Expr.Ambiguous_column _ -> ()
  | _ -> Alcotest.fail "ambiguity not detected");
  (match Engine.Expr.resolve schema { table = None; name = "zz" } with
  | exception Engine.Expr.Unbound_column _ -> ()
  | _ -> Alcotest.fail "unbound not detected");
  Alcotest.(check int) "qualified" 1
    (Engine.Expr.resolve schema { table = Some "u"; name = "a" })

(* ---- scans, filters, projections ---- *)

let test_scan_and_filter () =
  let r = run "select name from emp where salary > 150" in
  Alcotest.(check int) "three rows" 3 (Relation.cardinality r)

let test_projection_expressions () =
  let r = run "select eid * 10 as tens from emp where eid = 2" in
  check_value "computed" (v_i 20) (Relation.get r 0).(0)

let test_select_star () =
  let r = run "select * from dept" in
  Alcotest.(check int) "all columns" 2 (Schema.arity (Relation.schema r));
  Alcotest.(check int) "all rows" 3 (Relation.cardinality r)

let test_null_filtered () =
  let r = run "select name from emp where salary > 0" in
  (* eve's NULL salary fails the predicate *)
  Alcotest.(check int) "null row dropped" 4 (Relation.cardinality r)

(* ---- joins ---- *)

let test_hash_join () =
  let r = run "select e.name, d.dname from emp e, dept d where e.dept = d.did" in
  Alcotest.(check int) "four matches" 4 (Relation.cardinality r)

let test_join_no_match () =
  let r =
    run "select e.name from emp e, dept d where e.dept = d.did and d.dname = 'empty'"
  in
  Alcotest.(check int) "empty join" 0 (Relation.cardinality r)

let test_cross_product () =
  let r = run "select e.eid, d.did from emp e, dept d" in
  Alcotest.(check int) "5 x 3" 15 (Relation.cardinality r)

let test_index_join_equivalence () =
  let engine = db () in
  Engine.Database.create_index engine ~table:"dept" ~attr:"did";
  Engine.Database.analyze_all engine;
  let sql = "select e.name, d.dname from emp e, dept d where e.dept = d.did order by e.name" in
  let with_index = Engine.Database.query engine sql in
  let without =
    Engine.Database.query
      ~config:{ Engine.Planner.default_config with use_indexes = false }
      engine sql
  in
  Alcotest.(check bool) "same results" true
    (Relation.equal_as_bags with_index without)

let test_index_join_used () =
  let engine = db () in
  Engine.Database.create_index engine ~table:"dept" ~attr:"did";
  Engine.Database.analyze_all engine;
  let plan =
    Engine.Database.explain engine
      "select e.name, d.dname from emp e, dept d where e.dept = d.did"
  in
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "plan uses the index" true (contains plan "IndexJoin")

let test_left_outer_join () =
  let r =
    run
      "select d.dname, e.name from dept d left outer join emp e on e.dept = d.did \
       order by d.dname"
  in
  (* eng: 2 matches, sales: 2 matches, empty: null-padded once *)
  Alcotest.(check int) "five rows" 5 (Relation.cardinality r);
  let empty_row = Relation.get r 0 in
  Alcotest.(check bool) "empty dept kept" true
    (Value.equal empty_row.(0) (v_s "empty") && Value.is_null empty_row.(1))

let test_left_outer_join_residual_on () =
  (* extra non-equality condition inside ON restricts matches without
     dropping left rows *)
  let r =
    run
      "select d.dname, e.name from dept d \
       left join emp e on e.dept = d.did and e.salary > 150 \
       order by d.dname, e.name"
  in
  (* eng keeps only bob; sales keeps carol and dan; empty null-padded *)
  Alcotest.(check int) "four rows" 4 (Relation.cardinality r);
  let eng_rows =
    Relation.row_list (Relation.filter (fun row -> Value.equal row.(0) (v_s "eng")) r)
  in
  (match eng_rows with
  | [ row ] -> Alcotest.(check bool) "bob only" true (Value.equal row.(1) (v_s "bob"))
  | _ -> Alcotest.fail "expected one eng row")

(* The same condition on the hash path (an equality conjunct) and on
   the nested-loop path (no conjunct to hash on) gives the same rows in
   the same order: each left row's matches in build order *)
let test_left_outer_join_paths_agree () =
  let rows sql = Relation.row_list (run sql) in
  let hashed = rows "select d.did, e.name from dept d left join emp e on d.did = e.dept" in
  let looped =
    rows "select d.did, e.name from dept d left join emp e on (d.did = e.dept or 1 = 0)"
  in
  let show rows =
    List.map (fun r -> String.concat "," (Array.to_list (Array.map Value.to_string r))) rows
  in
  Alcotest.(check (list string)) "same row sequence" (show looped) (show hashed);
  Alcotest.(check (list string)) "build order"
    [ "10,ann"; "10,bob"; "20,carol"; "20,dan"; "40,NULL" ] (show hashed)

let test_left_outer_join_nested_loop_path () =
  (* a pure inequality ON condition exercises the nested-loop path *)
  let r =
    run
      "select d.did, e.eid from dept d left join emp e on e.salary > 250 and e.dept = 20 \
       order by d.did, e.eid"
  in
  (* every dept row pairs with carol(300) and dan(400): 3 * 2 = 6 *)
  Alcotest.(check int) "six rows" 6 (Relation.cardinality r)

let test_left_outer_join_all_match () =
  let inner =
    run "select e.name, d.dname from emp e, dept d where e.dept = d.did"
  in
  let outer =
    run "select e.name, d.dname from emp e left join dept d on e.dept = d.did"
  in
  (* eve's dept 30 has no dept row: outer keeps her with NULL *)
  Alcotest.(check int) "outer adds the dangling row"
    (Relation.cardinality inner + 1)
    (Relation.cardinality outer)

(* A WHERE conjunct over the outer-joined table filters the outer
   join's output: pushed below it, [e.eid is null] would drop every emp
   row and pad every dept *)
let test_left_outer_join_where () =
  let names sql =
    List.map (fun r -> Value.to_string r.(0)) (Relation.row_list (run sql))
  in
  Alcotest.(check (list string)) "qualified" [ "empty" ]
    (names "select d.dname from dept d left join emp e on e.dept = d.did where e.eid is null");
  Alcotest.(check (list string)) "unqualified" [ "empty" ]
    (names "select dname from dept left join emp on dept = did where eid is null");
  Alcotest.(check (list string)) "beside an inner-table conjunct" [ "eng" ]
    (names
       "select d.dname from dept d left join emp e on e.dept = d.did \
        where e.salary > 150 and d.did < 20")

let test_outer_join_not_rewritable () =
  let db = Fixtures.figure2_db () in
  let s = Conquer.Clean.create db in
  let sql =
    "select o.id, c.id from orders o left join customer c on o.cidfk = c.id"
  in
  match Conquer.Clean.check s sql with
  | Ok _ -> Alcotest.fail "outer join should not be rewritable"
  | Error vs ->
    Alcotest.(check bool) "not-SPJ violation" true
      (List.exists
         (function Conquer.Rewritable.Not_spj _ -> true | _ -> false)
         vs)

let test_pushdown_equivalence () =
  let sql =
    "select e.name from emp e, dept d \
     where e.dept = d.did and e.salary > 150 and d.dname = 'sales'"
  in
  let pushed = run sql in
  let unpushed =
    run ~config:{ Engine.Planner.default_config with pushdown = false } sql
  in
  Alcotest.(check bool) "pushdown preserves results" true
    (Relation.equal_as_bags pushed unpushed);
  Alcotest.(check int) "two sales rows above 150" 2 (Relation.cardinality pushed)

(* ---- aggregation ---- *)

let test_aggregates_global () =
  let r = run "select count(*), sum(salary), min(salary), max(salary), avg(salary) from emp" in
  let row = Relation.get r 0 in
  check_value "count counts all rows" (v_i 5) row.(0);
  check_value "sum skips nulls" (v_i 1000) row.(1);
  check_value "min" (v_i 100) row.(2);
  check_value "max" (v_i 400) row.(3);
  check_value "avg over non-nulls" (v_f 250.0) row.(4)

let test_count_column_skips_nulls () =
  let r = run "select count(salary) from emp" in
  check_value "count(col)" (v_i 4) (Relation.get r 0).(0)

let test_aggregate_empty_input () =
  let r = run "select count(*), sum(salary) from emp where eid > 100" in
  let row = Relation.get r 0 in
  check_value "count 0" (v_i 0) row.(0);
  check_value "sum null" Value.Null row.(1)

let test_group_by () =
  let r = run "select dept, count(*), sum(salary) from emp group by dept order by dept" in
  Alcotest.(check int) "three groups" 3 (Relation.cardinality r);
  let row = Relation.get r 0 in
  check_value "dept 10" (v_i 10) row.(0);
  check_value "count 2" (v_i 2) row.(1);
  check_value "sum 300" (v_i 300) row.(2)

let test_group_by_empty_input_no_groups () =
  let r = run "select dept, count(*) from emp where eid > 100 group by dept" in
  Alcotest.(check int) "no groups" 0 (Relation.cardinality r)

let test_having () =
  let r = run "select dept, count(*) from emp group by dept having count(*) > 1" in
  Alcotest.(check int) "two surviving groups" 2 (Relation.cardinality r)

let test_group_expression () =
  (* grouping on a computed expression, as the rewritten Q3 does *)
  let r =
    run
      "select salary * 2 as double, count(*) from emp \
       where salary is not null group by salary * 2 order by double"
  in
  Alcotest.(check int) "four groups" 4 (Relation.cardinality r);
  check_value "first" (v_i 200) (Relation.get r 0).(0)

let test_aggregate_of_expression () =
  let r = run "select sum(salary * 2) from emp" in
  check_value "sum of products" (v_i 2000) (Relation.get r 0).(0)

(* ---- sort / distinct / limit ---- *)

let test_order_by () =
  let r = run "select name, salary from emp where salary is not null order by salary desc" in
  check_value "largest first" (v_s "dan") (Relation.get r 0).(0);
  check_value "smallest last" (v_s "ann") (Relation.get r 3).(0)

let test_order_by_alias () =
  let r =
    run "select name, salary * 2 as double from emp where salary is not null order by double desc"
  in
  check_value "alias sort" (v_s "dan") (Relation.get r 0).(0)

let test_order_by_unprojected_column () =
  (* sorting on a column that is not selected (sort below project) *)
  let r = run "select name from emp where salary is not null order by salary desc" in
  check_value "sorted by hidden column" (v_s "dan") (Relation.get r 0).(0)

let test_distinct () =
  let r = run "select distinct dept from emp" in
  Alcotest.(check int) "three departments" 3 (Relation.cardinality r)

let test_limit () =
  let r = run "select eid from emp order by eid limit 2" in
  Alcotest.(check int) "limit" 2 (Relation.cardinality r);
  check_value "first" (v_i 1) (Relation.get r 0).(0)

(* ---- planner errors ---- *)

let test_unknown_table () =
  match run "select x from nonexistent" with
  | exception Engine.Planner.Plan_error _ -> ()
  | _ -> Alcotest.fail "unknown table accepted"

let test_duplicate_alias () =
  match run "select 1 from emp e, dept e" with
  | exception Engine.Planner.Plan_error _ -> ()
  | _ -> Alcotest.fail "duplicate alias accepted"

let test_ambiguous_column_rejected () =
  (* both emp and dept joined; a bogus shared name *)
  match run "select name from emp e, dept d where e.dept = d.did and zzz = 1" with
  | exception Engine.Planner.Plan_error _ -> ()
  | _ -> Alcotest.fail "unbound column accepted"

(* ---- column pruning ----

   Every join emits rows narrowed to the columns the plan above it
   reads ([keep]).  Pruning must never change an answer or an error. *)

(* [db ()] plus a third table for three-way joins *)
let db3 () =
  let engine = db () in
  Engine.Database.add_relation engine ~name:"proj"
    (Relation.create
       (Schema.make
          [ ("pid", Value.TInt); ("owner", Value.TInt); ("budget", Value.TInt) ])
       [
         [| v_i 1; v_i 1; v_i 50 |];
         [| v_i 2; v_i 2; v_i 500 |];
         [| v_i 3; v_i 3; v_i 1000 |];
         [| v_i 4; v_i 4; v_i 10 |];
       ]);
  engine

let plan_of engine sql =
  Engine.Database.plan engine (Sql.Parser.parse_query sql)

(* the joins with their keep sets, top-down *)
let rec joins (plan : Engine.Plan.t) =
  match plan with
  | Scan _ -> []
  | Filter { input; _ } | Project { input; _ } | Aggregate { input; _ }
  | Sort { input; _ } | Distinct input | Limit (input, _) ->
    joins input
  | Hash_join { left; right; keep; _ } ->
    ((`Hash, keep) :: joins left) @ joins right
  | Index_join { left; keep; _ } -> (`Index, keep) :: joins left

let join_keeps plan = List.map snd (joins plan)

(* the same plan with every join keeping all its columns *)
let rec strip_keeps (plan : Engine.Plan.t) : Engine.Plan.t =
  match plan with
  | Scan _ -> plan
  | Filter f -> Filter { f with input = strip_keeps f.input }
  | Project p -> Project { p with input = strip_keeps p.input }
  | Aggregate a -> Aggregate { a with input = strip_keeps a.input }
  | Sort s -> Sort { s with input = strip_keeps s.input }
  | Distinct input -> Distinct (strip_keeps input)
  | Limit (input, n) -> Limit (strip_keeps input, n)
  | Hash_join j ->
    Hash_join
      {
        j with
        left = strip_keeps j.left;
        right = strip_keeps j.right;
        keep = None;
      }
  | Index_join j -> Index_join { j with left = strip_keeps j.left; keep = None }

let keeps = Alcotest.(list (option (list string)))

let test_prune_three_way () =
  let engine = db3 () in
  let sql =
    "select e.name from emp e, dept d, proj p where e.dept = d.did and \
     p.owner = e.eid and e.salary < p.budget order by d.dname, e.name"
  in
  (* the upper join keeps the residual filter's columns and the
     select and order columns; the lower one also keeps e.eid, the
     upper join's key *)
  Alcotest.check keeps "keep sets"
    [
      Some [ "e.name"; "e.salary"; "d.dname"; "p.budget" ];
      Some [ "e.eid"; "e.name"; "e.salary"; "d.dname" ];
    ]
    (join_keeps (plan_of engine sql));
  let r = Engine.Database.query engine sql in
  Alcotest.(check (list string)) "answers" [ "bob"; "carol" ]
    (List.map (fun row -> Value.to_string row.(0)) (Relation.row_list r));
  Alcotest.(check bool) "explain prints the keep list" true
    (Testutil.contains (Engine.Database.explain engine sql)
       "keep [e.name, e.salary, d.dname, p.budget]")

let test_prune_select_star () =
  let engine = db3 () in
  let sql =
    "select * from emp e, dept d, proj p where e.dept = d.did and p.owner = \
     e.eid"
  in
  Alcotest.check keeps "nothing pruned" [ None; None ]
    (join_keeps (plan_of engine sql));
  let r = Engine.Database.query engine sql in
  Alcotest.(check int) "every column" 9 (Schema.arity (Relation.schema r))

let test_prune_order_below_projection () =
  let engine = db () in
  let sql =
    "select e.name from emp e, dept d where e.dept = d.did order by \
     d.dname desc, e.salary"
  in
  Alcotest.check keeps "the sort's base columns survive"
    [ Some [ "e.name"; "e.salary"; "d.dname" ] ]
    (join_keeps (plan_of engine sql));
  let r = Engine.Database.query engine sql in
  Alcotest.(check (list string)) "sorted by unselected columns"
    [ "carol"; "dan"; "ann"; "bob" ]
    (List.map (fun row -> Value.to_string row.(0)) (Relation.row_list r))

let test_prune_ambiguous_column () =
  (* [name] is e.name or f.name: pruning must not keep only one of
     them and so make the reference resolve *)
  let engine = db3 () in
  let sql =
    "select name from emp e, emp f, dept d where e.eid = f.eid and e.dept = \
     d.did"
  in
  let plan = plan_of engine sql in
  Alcotest.check keeps "nothing pruned" [ None; None ] (join_keeps plan);
  match Engine.Database.run_plan engine plan with
  | _ -> Alcotest.fail "ambiguous column accepted"
  | exception Engine.Exec.Exec_error msg ->
    Alcotest.(check string) "the error as before" "ambiguous column name" msg

(* Over generated cases, original and (when rewritable) rewritten, the
   pruned plan answers bitwise as the same plan with pruning stripped. *)

(* pruned hash joins and index joins seen by the property *)
let pruned_hash = ref 0 and pruned_index = ref 0

let prop_prune_invisible =
  QCheck.Test.make ~count:200
    ~name:"pruned joins answer bitwise as unpruned"
    (Fuzz.Case.arbitrary ())
    (fun (case : Fuzz.Case.t) ->
      let session = Conquer.Clean.create case.db in
      let engine = Conquer.Clean.engine session in
      let env = Conquer.Dirty_schema.of_dirty_db case.db in
      let queries =
        case.query
        :: (match Conquer.Rewrite.rewrite_checked env case.query with
           | Ok q -> [ q ]
           | Error _ -> [])
      in
      let catalog =
        {
          Engine.Exec.relation = Engine.Database.relation engine;
          index = (fun table attr -> Engine.Database.index engine ~table ~attr);
        }
      in
      let run plan =
        match Engine.Exec.run catalog plan with
        | rel -> Ok rel
        | exception Engine.Exec.Exec_error msg -> Error msg
      in
      List.for_all
        (fun q ->
          match Engine.Database.plan engine q with
          | exception Engine.Planner.Plan_error _ -> true
          | plan ->
            List.iter
              (function
                | `Hash, Some _ -> incr pruned_hash
                | `Index, Some _ -> incr pruned_index
                | _, None -> ())
              (joins plan);
            let pruned = run plan and unpruned = run (strip_keeps plan) in
            match pruned, unpruned with
            | Ok a, Ok b when Testutil.rows_bits_equal a b -> true
            | Error a, Error b when a = b -> true
            | _ ->
              QCheck.Test.fail_reportf "pruned differs from unpruned on\n%s"
                (Engine.Plan.to_string plan))
        queries)

let test_prune_invisible () =
  QCheck.Test.check_exn prop_prune_invisible;
  Alcotest.(check bool) "some generated hash joins were pruned" true
    (!pruned_hash > 0);
  Alcotest.(check bool) "some generated index joins were pruned" true
    (!pruned_index > 0)

(* ---- statistics ---- *)

let test_stats () =
  let engine = db () in
  Engine.Database.analyze engine "emp";
  match Engine.Database.stats engine "emp" with
  | None -> Alcotest.fail "no stats"
  | Some stats ->
    Alcotest.(check int) "rows" 5 stats.Engine.Stats.rows;
    (match Engine.Stats.column stats "dept" with
    | Some c ->
      Alcotest.(check int) "distinct depts" 3 c.Engine.Stats.distinct;
      Alcotest.(check int) "no nulls" 0 c.Engine.Stats.nulls
    | None -> Alcotest.fail "no dept stats");
    (match Engine.Stats.column stats "salary" with
    | Some c -> Alcotest.(check int) "one null" 1 c.Engine.Stats.nulls
    | None -> Alcotest.fail "no salary stats")

let test_histograms () =
  (* 100 rows with values 1..100: the equi-depth histogram should
     estimate range fractions accurately *)
  let rel =
    Relation.create
      (Schema.make [ ("v", Value.TInt) ])
      (List.init 100 (fun i -> [| v_i (i + 1) |]))
  in
  let stats = Engine.Stats.analyze rel in
  match Engine.Stats.column stats "v" with
  | None -> Alcotest.fail "no stats"
  | Some { histogram = None; _ } -> Alcotest.fail "no histogram"
  | Some { histogram = Some hist; _ } ->
    let frac ?lo ?hi () = Engine.Stats.range_fraction hist ?lo ?hi () in
    Alcotest.(check bool) "half below 50" true
      (Float.abs (frac ~hi:50.0 () -. 0.5) < 0.06);
    Alcotest.(check bool) "quarter in (25,50]" true
      (Float.abs (frac ~lo:25.0 ~hi:50.0 () -. 0.25) < 0.06);
    Fixtures.check_float "everything" 1.0 (frac ());
    Fixtures.check_float "empty range" 0.0 (frac ~lo:60.0 ~hi:40.0 ());
    Alcotest.(check bool) "below min" true (frac ~hi:0.5 () < 0.05)

let test_histogram_boundary_cdf () =
  (* Regression for the binary-search rewrite of [range_fraction]: 64
     values over 32 buckets gives depth 2 and bucket bounds exactly at
     2, 4, ..., 64, so the CDF at every bound is pinned to
     (i+1)/buckets with no interpolation slack.  The old linear scan
     and the binary search must agree on these boundary probes. *)
  let rel =
    Relation.create
      (Schema.make [ ("v", Value.TInt) ])
      (List.init 64 (fun i -> [| v_i (i + 1) |]))
  in
  let stats = Engine.Stats.analyze rel in
  match Engine.Stats.column stats "v" with
  | None | Some { histogram = None; _ } -> Alcotest.fail "no histogram"
  | Some { histogram = Some hist; _ } ->
    let buckets = Array.length hist.Engine.Stats.bounds in
    Alcotest.(check int) "32 buckets" 32 buckets;
    for i = 0 to buckets - 1 do
      Fixtures.check_float
        (Printf.sprintf "cdf at bound %d" i)
        (float_of_int (i + 1) /. float_of_int buckets)
        (Engine.Stats.range_fraction hist ~hi:hist.Engine.Stats.bounds.(i) ())
    done;
    (* half-way into a bucket interpolates linearly *)
    Fixtures.check_float "midpoint of the second bucket" (1.5 /. 32.0)
      (Engine.Stats.range_fraction hist ~hi:3.0 ());
    (* probes strictly outside the bounds stay clamped *)
    Fixtures.check_float "below the first bound" 0.0
      (Engine.Stats.range_fraction hist ~hi:1.0 ());
    Fixtures.check_float "above the last bound" 1.0
      (Engine.Stats.range_fraction hist ~lo:0.0 ~hi:1000.0 ())

let test_histogram_selectivity () =
  let rel =
    Relation.create
      (Schema.make [ ("v", Value.TInt) ])
      (List.init 100 (fun i -> [| v_i (i + 1) |]))
  in
  let stats = Some (Engine.Stats.analyze rel) in
  let sel sql = Engine.Stats.selectivity stats (Sql.Parser.parse_expr sql) in
  Alcotest.(check bool) "v < 20 is selective" true
    (Float.abs (sel "v < 20" -. 0.2) < 0.06);
  Alcotest.(check bool) "v > 80 is selective" true
    (Float.abs (sel "v > 80" -. 0.2) < 0.06);
  Alcotest.(check bool) "between uses the histogram" true
    (Float.abs (sel "v between 40 and 60" -. 0.2) < 0.06);
  (* string columns keep the default *)
  let rel2 =
    Relation.create
      (Schema.make [ ("s", Value.TString) ])
      [ [| v_s "a" |]; [| v_s "b" |] ]
  in
  let stats2 = Some (Engine.Stats.analyze rel2) in
  Fixtures.check_float "no histogram: default" (1.0 /. 3.0)
    (Engine.Stats.selectivity stats2 (Sql.Parser.parse_expr "s < 'b'"))

let test_selectivity () =
  let engine = db () in
  Engine.Database.analyze engine "emp";
  let stats = Engine.Database.stats engine "emp" in
  let sel sql = Engine.Stats.selectivity stats (Sql.Parser.parse_expr sql) in
  Alcotest.(check (float 1e-9)) "equality uses distinct" (1.0 /. 3.0)
    (sel "dept = 10");
  Alcotest.(check bool) "conjunction shrinks" true
    (sel "dept = 10 and salary > 100" < sel "dept = 10");
  Alcotest.(check bool) "range default" true (sel "salary > 100" > 0.0)

(* ---- profiling ----

   [conquer profile] prints the [exec.*] span tree that a query builds
   under {!Telemetry.Span.collecting}: one span per plan operator, with
   its output row count as the [rows_out] attribute.  These tests read
   that tree as an EXPLAIN ANALYZE. *)

let join_sql = "select e.name, d.dname from emp e, dept d where e.dept = d.did"

(* the answer and the single root span of one instrumented run *)
let profiled engine sql =
  match Telemetry.Span.collecting (fun () -> Engine.Database.query engine sql) with
  | rel, [ root ] -> (rel, root)
  | _, roots -> Alcotest.failf "expected one root span, got %d" (List.length roots)

(* the [exec.*] spans of a tree, in pre-order *)
let exec_spans root =
  List.rev
    (Telemetry.Span.fold_preorder
       (fun acc ~depth:_ (s : Telemetry.Span.t) ->
         if String.starts_with ~prefix:"exec." s.name then s :: acc else acc)
       [] root)

let rows_out (s : Telemetry.Span.t) =
  match List.assoc_opt "rows_out" s.attrs with
  | Some n -> int_of_string n
  | None -> Alcotest.failf "%s carries no rows_out" s.name

let test_exec_span_tree () =
  let engine = db () in
  let rel, root = profiled engine join_sql in
  Alcotest.(check int) "result rows" 4 (Relation.cardinality rel);
  Alcotest.(check string) "root span" "engine.query" root.name;
  let names = List.map (fun (s : Telemetry.Span.t) -> s.name) (exec_spans root) in
  Alcotest.(check string) "top operator" "exec.Project" (List.hd names);
  Alcotest.(check bool) "has a join" true
    (List.exists
       (fun n ->
         n = "exec.HashJoin" || String.starts_with ~prefix:"exec.IndexJoin" n)
       names);
  Alcotest.(check bool) "scans both tables" true
    (List.mem "exec.Scan emp" names && List.mem "exec.Scan dept" names)

let test_span_tree_text () =
  let _, root = profiled (db ()) "select name from emp where salary > 150" in
  let text = Telemetry.Export.span_to_string root in
  Alcotest.(check bool) "mentions rows" true (Testutil.contains text "rows_out=");
  Alcotest.(check bool) "mentions the scan" true
    (Testutil.contains text "exec.Scan emp")

let test_span_row_counts () =
  (* per-operator row counts are the actual cardinalities, not
     estimates: the scans see whole tables, the join and everything
     above it see the matching rows *)
  let _, root = profiled (db ()) join_sql in
  let expected =
    [
      ("exec.Project", 4); ("exec.HashJoin", 4); ("exec.Scan emp", 5);
      ("exec.Scan dept", 3);
    ]
  in
  let spans = exec_spans root in
  List.iter
    (fun (s : Telemetry.Span.t) ->
      match List.assoc_opt s.name expected with
      | Some n -> Alcotest.(check int) (s.name ^ " rows_out") n (rows_out s)
      | None -> Alcotest.failf "unexpected operator span %s" s.name)
    spans;
  Alcotest.(check int) "one span per operator" (List.length expected)
    (List.length spans);
  let text = Telemetry.Export.span_to_string root in
  Alcotest.(check bool) "rendered counts match" true
    (Testutil.contains text "rows_out=4");
  Alcotest.(check bool) "scan counts rendered" true
    (Testutil.contains text "rows_out=5")

let test_operator_times_monotone () =
  (* span times are inclusive of their children, so they must be
     monotone along every root-to-leaf path; and across plans, an
     operator over many rows must not be cheaper than over a handful *)
  let _, root = profiled (db ()) join_sql in
  let rec check_parent_covers (p : Telemetry.Span.t) =
    List.iter
      (fun (child : Telemetry.Span.t) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s covers %s" p.name child.name)
          true
          (p.elapsed +. 1e-9 >= child.elapsed);
        check_parent_covers child)
      p.children
  in
  check_parent_covers root;
  let project_time n =
    let engine = Engine.Database.create () in
    let rel =
      Relation.create
        (Schema.make [ ("v", Value.TInt) ])
        (List.init n (fun i -> [| v_i i |]))
    in
    Engine.Database.add_relation engine ~name:"t" rel;
    (* median of repeated profiled runs smooths scheduler noise *)
    let samples =
      List.init 5 (fun _ ->
          let _, root = profiled engine "select v from t" in
          match exec_spans root with
          | top :: _ -> top.elapsed
          | [] -> Alcotest.fail "no operator span")
    in
    (Telemetry.Timing.of_samples samples).median
  in
  Alcotest.(check bool) "times grow with row counts" true
    (project_time 50_000 >= project_time 50)

(* ---- streamed joins ----

   Hash and index joins, and the filters between them, push their rows
   into their consumer instead of building a relation; an Aggregate
   above groups them as they arrive, and a Project builds its output
   from them.  These tests build join chains as plans, so that the mix
   of index and hash joins is chosen, and check the answers against a
   nested-loop join over association lists written here. *)

let chain_cols = [ "k"; "a"; "b"; "v" ]
let tname i = Printf.sprintf "t%d" i
let qcol i n : Sql.Ast.expr = Col { table = Some (tname i); name = n }

(* how a step joins: a hash or an index join, a cross product (no
   keys), or a left outer hash join whose ON also holds [t<i>.v >= c]
   when [Outer (Some c)] *)
type kind = Hash | Index | Cross | Outer of int option

(* join step [i] adds table [i] on [t<j>.a = t<i>.k], and also
   [t<j>.b = t<i>.b] when [two_keys] (a cross step has no keys);
   [drop_k] narrows [t<i>.k] out of the join's output; [above = Some
   c] filters the join's output on [t<i>.a >= c] *)
type step = {
  j : int;
  two_keys : bool;
  kind : kind;
  drop_k : bool;
  above : int option;
}

(* [Projected] is a Project of [t0.k] and [t0.v + 1.0] *)
type top = Rows | Grouped | Ungrouped | Projected

type chain = { tables : Value.t array list array; steps : step list; top : top }

let chain_gen =
  let open QCheck.Gen in
  (* keys include NULL and [Float 1.0], which equals [Int 1] *)
  let key =
    frequency [ (1, return Value.Null); (1, return (v_f 1.0)); (8, map v_i (int_range 0 3)) ]
  in
  let value =
    frequency
      [
        (1, return Value.Null);
        (6, map (fun i -> v_f (0.1 *. float_of_int i)) (int_range (-3) 9));
      ]
  in
  let row = map (fun (k, a, b, v) -> [| k; a; b; v |]) (quad key key key value) in
  let* n = int_range 3 4 in
  let* tables = array_repeat n (list_size (int_range 0 9) row) in
  let kind =
    frequency
      [
        (3, return Hash);
        (3, return Index);
        (1, return Cross);
        (2, map (fun c -> Outer c) (opt (int_range 0 1)));
      ]
  in
  let* steps =
    flatten_l
      (List.init (n - 1) (fun i ->
           let i = i + 1 in
           map2
             (fun (j, two_keys, kind, drop_k) above -> { j; two_keys; kind; drop_k; above })
             (quad (int_range 0 (i - 1)) bool kind bool)
             (opt ~ratio:0.5 (int_range 0 3))))
  in
  let* top = oneofl [ Rows; Grouped; Ungrouped; Projected ] in
  return { tables; steps; top }

let print_chain c =
  let table i rows =
    Printf.sprintf "%s: %s" (tname i)
      (String.concat " "
         (List.map
            (fun r ->
              "(" ^ String.concat "," (Array.to_list (Array.map Value.to_string r)) ^ ")")
            rows))
  in
  String.concat "\n"
    (Array.to_list (Array.mapi table c.tables)
    @ List.mapi
        (fun i s ->
          Printf.sprintf "step %d: t%d.a = t%d.k%s %s%s%s" (i + 1) s.j (i + 1)
            (if s.two_keys then " and b" else "")
            (match s.kind with
            | Hash -> "hash"
            | Index -> "index"
            | Cross -> "cross"
            | Outer None -> "left outer"
            | Outer (Some c) -> Printf.sprintf "left outer and t%d.v >= %d" (i + 1) c)
            (if s.drop_k then " drop k" else "")
            (match s.above with
            | Some c -> Printf.sprintf " then t%d.a >= %d" (i + 1) c
            | None -> ""))
        c.steps
    @ [
        (match c.top with
        | Rows -> "rows"
        | Grouped -> "grouped"
        | Ungrouped -> "ungrouped"
        | Projected -> "projected");
      ])

let chain_engine c =
  let engine = Engine.Database.create () in
  let schema =
    Schema.make [ ("k", Value.TInt); ("a", Value.TInt); ("b", Value.TInt); ("v", Value.TFloat) ]
  in
  Array.iteri
    (fun i rows ->
      Engine.Database.add_relation engine ~name:(tname i) (Relation.create schema rows);
      Engine.Database.create_index engine ~table:(tname i) ~attr:"k")
    c.tables;
  engine

let chain_plan c : Engine.Plan.t =
  let scan i : Engine.Plan.t = Scan { table = tname i; alias = tname i } in
  let names i = List.map (fun n -> tname i ^ "." ^ n) chain_cols in
  let joined, _ =
    List.fold_left
      (fun ((plan : Engine.Plan.t), kept) (i, s) ->
        let right = List.filter (fun n -> not (s.drop_k && n = tname i ^ ".k")) (names i) in
        let keep = if s.drop_k then Some (kept @ right) else None in
        let left_keys = qcol s.j "a" :: (if s.two_keys then [ qcol s.j "b" ] else []) in
        let right_attrs = "k" :: (if s.two_keys then [ "b" ] else []) in
        let hash ?(outer = false) ?residual left_keys right_keys : Engine.Plan.t =
          Hash_join { left = plan; right = scan i; left_keys; right_keys; outer; residual; keep }
        in
        let node : Engine.Plan.t =
          match s.kind with
          | Index ->
            Index_join
              { left = plan; table = tname i; alias = tname i; left_keys; right_attrs; keep }
          | Hash -> hash left_keys (List.map (qcol i) right_attrs)
          | Cross -> hash [] []
          | Outer c ->
            hash ~outer:true
              ?residual:(Option.map (fun c -> Sql.Ast.Binop (Ge, qcol i "v", Lit (v_i c))) c)
              left_keys (List.map (qcol i) right_attrs)
        in
        let node : Engine.Plan.t =
          match s.above with
          | None -> node
          | Some c ->
            Filter { input = node; pred = Binop (Ge, qcol i "a", Lit (v_i c)) }
        in
        (node, kept @ right))
      (scan 0, names 0)
      (List.mapi (fun i s -> (i + 1, s)) c.steps)
  in
  let items group_by : (Sql.Ast.expr * string) list =
    List.map (fun e -> (e, "g")) group_by
    @ [ (Sql.Ast.Agg (Sum, Some (qcol 0 "v")), "s"); (Sql.Ast.Agg (Count, None), "c") ]
  in
  match c.top with
  | Rows -> joined
  | Grouped ->
    let group_by = [ qcol 0 "a" ] in
    Aggregate { input = joined; group_by; items = items group_by; having = None }
  | Ungrouped -> Aggregate { input = joined; group_by = []; items = items []; having = None }
  | Projected ->
    Project
      {
        input = joined;
        items = [ (qcol 0 "k", "x"); (Binop (Add, qcol 0 "v", Lit (v_f 1.0)), "y") ];
      }

(* the reference: rows are association lists from qualified names,
   joined by nested loops in left-row, then right-row, order; an outer
   step pads a left row none of whose pairs passes with NULLs *)
let chain_reference c =
  let assoc i r = List.map2 (fun n v -> (tname i ^ "." ^ n, v)) chain_cols (Array.to_list r) in
  let eq l r ln rn =
    let x = List.assoc ln l and y = List.assoc rn r in
    (not (Value.is_null x)) && (not (Value.is_null y)) && Value.equal x y
  in
  let joined =
    List.fold_left
      (fun acc (i, s) ->
        let tj n = tname s.j ^ "." ^ n and ti n = tname i ^ "." ^ n in
        let at_least n c l =
          match List.assoc n l with Value.Null -> false | x -> Value.compare x (v_i c) >= 0
        in
        let passes l = match s.above with None -> true | Some c -> at_least (ti "a") c l in
        let keys_match l r =
          s.kind = Cross
          || (eq l r (tj "a") (ti "k") && ((not s.two_keys) || eq l r (tj "b") (ti "b")))
        in
        let on_passes out =
          match s.kind with Outer (Some c) -> at_least (ti "v") c out | _ -> true
        in
        let narrow r = if s.drop_k then List.remove_assoc (ti "k") r else r in
        let rights = List.map (assoc i) c.tables.(i) in
        let nulls = narrow (List.map (fun n -> (ti n, Value.Null)) chain_cols) in
        List.concat_map
          (fun l ->
            let matches =
              List.filter_map
                (fun r ->
                  let out = l @ narrow r in
                  if keys_match l r && on_passes out then Some out else None)
                rights
            in
            let outs =
              match s.kind, matches with Outer _, [] -> [ l @ nulls ] | _ -> matches
            in
            List.filter passes outs)
          acc)
      (List.map (assoc 0) c.tables.(0))
      (List.mapi (fun i s -> (i + 1, s)) c.steps)
  in
  let row l = Array.of_list (List.map snd l) in
  (* SUM of t0.v and the row count per group, groups in first-occurrence order *)
  let aggregate ~ungrouped key rows =
    let groups = ref [] in
    List.iter
      (fun l ->
        let k = key l in
        if not (List.exists (fun (k', _) -> Value.equal k k') !groups) then
          groups := (k, ref []) :: !groups;
        let _, members = List.find (fun (k', _) -> Value.equal k k') !groups in
        members := l :: !members)
      rows;
    (* an ungrouped aggregate over no rows still answers one row *)
    if ungrouped && !groups = [] then groups := [ (Value.Null, ref []) ];
    List.rev_map
      (fun (k, members) ->
        let vs =
          List.filter_map
            (fun l -> match List.assoc "t0.v" l with Value.Null -> None | v -> Some v)
            (List.rev !members)
        in
        let sum =
          match vs with
          | [] -> Value.Null
          | _ -> v_f (List.fold_left (fun acc v -> acc +. Option.get (Value.to_float v)) 0.0 vs)
        in
        (k, sum, v_i (List.length !members)))
      !groups
  in
  match c.top with
  | Rows -> List.map row joined
  | Projected ->
    List.map
      (fun l ->
        [|
          List.assoc "t0.k" l;
          (match List.assoc "t0.v" l with
          | Value.Float f -> v_f (f +. 1.0)
          | v -> v);
        |])
      joined
  | Grouped ->
    List.map
      (fun (k, s, n) -> [| k; s; n |])
      (aggregate ~ungrouped:false (fun l -> List.assoc "t0.a" l) joined)
  | Ungrouped ->
    List.map (fun (_, s, n) -> [| s; n |]) (aggregate ~ungrouped:true (fun _ -> Value.Null) joined)

let run_chain ?budget c = Engine.Database.run_plan ?budget (chain_engine c) (chain_plan c)

let prop_streamed_joins =
  QCheck.Test.make ~count:300
    ~name:
      "streamed index/hash join chains, with cross and left outer steps, filters between \
       the joins and a project on top, equal a nested-loop reference, bitwise"
    (QCheck.make ~print:print_chain chain_gen)
    (fun c ->
      let expected = chain_reference c in
      let got = Array.to_list (Relation.rows (run_chain c)) in
      List.length got = List.length expected
      && List.for_all2
           (fun g e ->
             Array.length g = Array.length e && Array.for_all2 Testutil.cell_bits_equal g e)
           got expected
      || QCheck.Test.fail_reportf "%d rows, reference %d rows" (List.length got)
           (List.length expected))

(* a fixed four-join chain with enough rows that budgets cut it at
   every operator: t0 (hash t1) (index t2, then a filter) (index t3)
   (left outer t4 on t0.a = t4.k and t4.v >= 1, where key 0's matches
   all fail the residual, key 3 has none, and keys 1 and 2 keep one) *)
let budget_chain () =
  let rows n f = List.init n (fun r -> f r) in
  let row k a b v = [| v_i k; v_i a; v_i b; v_f v |] in
  {
    tables =
      [|
        rows 12 (fun r -> row r (r mod 4) (r mod 2) (float_of_int r));
        rows 8 (fun r -> row (r mod 4) (r mod 3) 0 0.5);
        rows 6 (fun r -> row (r mod 3) r 1 0.25);
        rows 10 (fun r -> row (r mod 5) 0 0 1.0);
        rows 6 (fun r -> row (r mod 3) 0 0 (0.25 *. float_of_int r));
      |];
    steps =
      [
        { j = 0; two_keys = false; kind = Hash; drop_k = false; above = None };
        { j = 1; two_keys = false; kind = Index; drop_k = true; above = Some 2 };
        { j = 2; two_keys = false; kind = Index; drop_k = false; above = None };
        { j = 0; two_keys = false; kind = Outer (Some 1); drop_k = false; above = None };
      ];
    top = Rows;
  }

let test_streamed_budget_prefixes () =
  List.iter
    (fun top ->
      let c = { (budget_chain ()) with top } in
      let full = run_chain c in
      let unlimited = Engine.Budget.create Engine.Budget.no_limits in
      ignore (run_chain ~budget:unlimited c);
      let needed = Engine.Budget.produced unlimited in
      Alcotest.(check bool) "the chain produces rows" true (Relation.cardinality full > 0);
      for max_rows = 0 to needed + 1 do
        let limits = { Engine.Budget.max_rows = Some max_rows; max_elapsed = None } in
        let budget = Engine.Budget.create ~mode:Truncate limits in
        let rel1 = run_chain ~budget c in
        let stopped1 = Engine.Budget.truncated budget in
        let msg = Printf.sprintf "max_rows %d" max_rows in
        Alcotest.(check bool) (msg ^ ": stops iff over budget") (max_rows < needed) stopped1;
        let n = Relation.cardinality rel1 in
        Alcotest.(check bool) (msg ^ ": a prefix of the full answer") true
          (n <= Relation.cardinality full
          && Testutil.rows_bits_equal rel1
               (Relation.of_array (Relation.schema full)
                  (Array.sub (Relation.rows full) 0 n)));
        let raise_budget = Engine.Budget.create ~mode:Raise limits in
        match run_chain ~budget:raise_budget c with
        | rel ->
          Alcotest.(check bool) (msg ^ ": Raise completes only within budget") true
            (max_rows >= needed && Testutil.rows_bits_equal rel full)
        | exception Engine.Budget.Exceeded _ ->
          Alcotest.(check bool) (msg ^ ": Raise raises only over budget") true
            (max_rows < needed)
      done)
    [ Rows; Grouped; Projected ]

(* Aggregate over IndexJoin over HashJoin: the span tree is the plan
   tree, with the build side under its hash join, and every span counts
   exactly the rows its operator produced *)
let test_streamed_spans () =
  let c =
    {
      (budget_chain ()) with
      steps =
        [
          { j = 0; two_keys = false; kind = Hash; drop_k = false; above = None };
          { j = 1; two_keys = false; kind = Index; drop_k = false; above = None };
        ];
      top = Grouped;
    }
  in
  let c = { c with tables = Array.sub c.tables 0 3 } in
  let engine = chain_engine c in
  let rel, roots =
    Telemetry.Span.collecting (fun () ->
        Engine.Database.run_plan engine (chain_plan c))
  in
  let hash_rows =
    List.length
      (chain_reference
         { steps = [ List.hd c.steps ]; tables = Array.sub c.tables 0 2; top = Rows })
  in
  let index_rows = List.length (chain_reference { c with top = Rows }) in
  let rec shape (s : Telemetry.Span.t) =
    Printf.sprintf "%s[%d](%s)" s.name (rows_out s)
      (String.concat "," (List.map shape s.children))
  in
  let expected =
    Printf.sprintf
      "exec.Aggregate[%d](exec.IndexJoin t2[%d](exec.HashJoin[%d](exec.Scan t1[8](),exec.Scan \
       t0[12]())))"
      (Relation.cardinality rel) index_rows hash_rows
  in
  match roots with
  | [ root ] -> Alcotest.(check string) "span tree" expected (shape root)
  | _ -> Alcotest.failf "expected one root span, got %d" (List.length roots)

(* ---- indexes ---- *)

let test_index_lookup () =
  let rel =
    Relation.create
      (Schema.make [ ("k", Value.TInt); ("v", Value.TString) ])
      [
        [| v_i 1; v_s "a" |]; [| v_i 2; v_s "b" |]; [| v_i 1; v_s "c" |];
      ]
  in
  let idx = Engine.Index.build rel "k" in
  Alcotest.(check (list int)) "bucket" [ 0; 2 ] (Engine.Index.lookup idx [| v_i 1 |]);
  Alcotest.(check (list int)) "missing" [] (Engine.Index.lookup idx [| v_i 99 |]);
  Alcotest.(check int) "distinct keys" 2 (Engine.Index.distinct_keys idx)

(* key cells that are equal under [Value.equal] without being the same
   value, or that sit next to such a value *)
let corner_key_cells =
  [
    Value.Null; v_i 2; v_f 2.0; v_f 0.0; v_f (-0.0); v_i 0; v_f Float.nan;
    v_f (Int64.float_of_bits 0x7FF8000000000001L); v_f (-.Float.nan);
    v_i (1 lsl 53); v_i ((1 lsl 53) + 1); v_i ((1 lsl 53) - 1); v_f 0x1p53;
    v_f (0x1p53 +. 2.0); v_f (0x1p53 -. 1.0);
  ]

(* a computed key: the cell in its other numeric representation where
   that is exact, so equal keys reach the table as different values *)
let flip_numeric (v : Value.t) : Value.t =
  match v with
  | Int i when abs i <= 1 lsl 53 -> Float (float_of_int i)
  | Float f when Float.is_integer f && Float.abs f <= 0x1p53 -> Int (int_of_float f)
  | v -> v

(* The index against a scan: keys of 1-3 parts (the last one computed
   in half the cases) over rows of three cells, for every distinct key
   tuple its row ids, in row order, over enough distinct keys to grow
   the table several times *)
let prop_index_lookup =
  let cell =
    QCheck.Gen.(
      oneof
        [
          map v_i (int_range 0 150);
          map (fun i -> v_f (float_of_int i)) (int_range 0 20);
          map v_s (string_size (int_range 0 2));
          oneofl corner_key_cells;
        ])
  in
  let gen =
    QCheck.Gen.(
      triple (int_range 1 3) bool
        (list_size (int_range 0 400) (array_size (return 3) cell)))
  in
  let print (arity, computed, rows) =
    Printf.sprintf "arity %d, computed %b, rows [%s]" arity computed
      (String.concat "; "
         (List.map
            (fun r -> String.concat "," (Array.to_list (Array.map Value.to_string r)))
            rows))
  in
  QCheck.Test.make ~count:200 ~name:"Index.lookup equals a scan, in row order"
    (QCheck.make ~print gen)
    (fun (arity, computed, rows) ->
      let fns =
        Array.init arity (fun j ->
            if computed && j = arity - 1 then fun row -> flip_numeric row.(j)
            else fun row -> row.(j))
      in
      let idx = Engine.Index.of_rows fns (Array.of_list rows) in
      let keys = List.map (fun row -> Array.map (fun f -> f row) fns) rows in
      let same a b = Array.for_all2 Value.equal a b in
      let scan key =
        List.concat (List.mapi (fun i k -> if same key k then [ i ] else []) keys)
      in
      let compare_keys a b =
        List.compare Value.compare (Array.to_list a) (Array.to_list b)
      in
      let distinct = List.sort_uniq compare_keys keys in
      let absent = [ v_i 999; v_s "zzz"; v_f 0.5 ] in
      let probes = distinct @ List.map (fun v -> Array.make arity v) absent in
      Engine.Index.distinct_keys idx = List.length distinct
      && Engine.Index.cardinality idx = List.length rows
      && List.for_all (fun key -> Engine.Index.lookup idx key = scan key) probes)

(* ---- ORDER BY ---- *)

let names_of r = List.map (fun row -> Value.to_string row.(0)) (Relation.row_list r)

(* [sql] sorts below its projection, and answers [expected] *)
let check_sorted_below_project sql expected =
  (match plan_of (db ()) sql with
  | Project { input = Sort _; _ } -> ()
  | plan -> Alcotest.failf "no sort below the projection:\n%s" (Engine.Plan.to_string plan));
  Alcotest.(check (list string)) sql expected (names_of (run sql))

let test_order_below_project_desc_null () =
  (* NULL is the lowest value, so DESC puts it last *)
  check_sorted_below_project "select name from emp order by salary desc"
    [ "dan"; "carol"; "bob"; "ann"; "eve" ]

let test_order_below_project_ties () =
  check_sorted_below_project "select name from emp order by dept desc"
    [ "eve"; "carol"; "dan"; "ann"; "bob" ]

let test_order_below_project_computed () =
  (* integer division: depts 10 | 20, 30; NULL * -1 is NULL, the lowest *)
  check_sorted_below_project "select name from emp order by dept / 20, salary * -1"
    [ "bob"; "ann"; "eve"; "dan"; "carol" ]

(* Cells that [Value.compare] calls equal without being the same
   value, their neighbours, and one of each other type; few enough
   that a column is heavy with ties *)
let sort_numeric_cells =
  [
    Value.Null; v_i 2; v_f 2.0; v_f 2.5; v_i 0; v_f 0.0; v_f (-0.0); v_i (-1);
    v_f Float.nan; v_f (Int64.float_of_bits 0x7FF8000000000001L); v_f (-.Float.nan);
    v_f (Int64.float_of_bits 0x7FF0000000000001L); v_f Float.infinity;
    v_i (1 lsl 53); v_i ((1 lsl 53) + 1); v_i ((1 lsl 53) - 1); v_f 0x1p53;
    v_f (0x1p53 +. 2.0); v_f (0x1p53 -. 1.0); v_i (-(1 lsl 53)); v_i (-(1 lsl 53) - 1);
    v_f (-0x1p53); v_f (-0x1p53 -. 2.0);
  ]

let sort_other_cells =
  [
    Value.Null; v_s ""; v_s "a"; v_s "ab"; Value.Date 0; Value.Date 9000; Value.Date (-1);
    Value.Bool true; Value.Bool false;
  ]

(* A column is numeric (its computed key negates it), boolean (NOT) or
   mixed (no computed key); a key is a column, computed or not, ASC or
   DESC *)
type sort_col = Numeric | Boolean | Mixed

let sort_case_gen =
  let open QCheck.Gen in
  let cell = function
    | Numeric -> oneofl sort_numeric_cells
    | Boolean -> oneofl [ Value.Null; Value.Bool true; Value.Bool false ]
    | Mixed -> oneofl (sort_numeric_cells @ sort_other_cells)
  in
  let* kinds = array_size (return 4) (oneofl [ Numeric; Boolean; Mixed ]) in
  let* keys = list_size (int_range 1 4) (triple (int_range 0 3) bool bool) in
  let* n = oneof [ return 0; return 1; int_range 2 150 ] in
  let* rows = array_size (return n) (flatten_a (Array.map cell kinds)) in
  return (kinds, keys, rows)

let sort_key_expr kinds (c, computed, _) : Sql.Ast.expr =
  let col : Sql.Ast.expr = Col { table = Some "t"; name = Printf.sprintf "c%d" c } in
  match kinds.(c) with
  | Numeric when computed -> Unop (Neg, col)
  | Boolean when computed -> Unop (Not, col)
  | Numeric | Boolean | Mixed -> col

let show_rows rows =
  String.concat "\n"
    (Array.to_list
       (Array.map (fun r -> String.concat ", " (Array.to_list (Array.map Value.to_string r))) rows))

let print_sort_case (kinds, keys, rows) =
  Printf.sprintf "keys [%s]\nrows\n%s"
    (String.concat ", "
       (List.map
          (fun ((_, _, desc) as k) ->
            Sql.Pretty.expr_to_string (sort_key_expr kinds k) ^ if desc then " DESC" else "")
          keys))
    (show_rows rows)

(* The Sort against a stable comparator sort over [Value.compare]:
   the same row objects in the same order, so ties keep their input
   order *)
let prop_sort =
  QCheck.Test.make ~count:500 ~name:"Sort = a stable Value.compare sort, row for row"
    (QCheck.make ~print:print_sort_case sort_case_gen)
    (fun (kinds, keys, rows) ->
      let schema = Schema.make (List.init 4 (fun j -> (Printf.sprintf "c%d" j, Value.TString))) in
      let rel = Relation.of_array schema rows in
      let catalog : Engine.Exec.catalog =
        { relation = (fun _ -> rel); index = (fun _ _ -> None) }
      in
      let plan_keys = List.map (fun ((_, _, desc) as k) -> (sort_key_expr kinds k, desc)) keys in
      let plan : Engine.Plan.t =
        Sort { input = Scan { table = "t"; alias = "t" }; keys = plan_keys }
      in
      let got = Relation.rows (Engine.Exec.run catalog plan) in
      let fns =
        List.map
          (fun (e, desc) -> (Engine.Expr.compile (Schema.rename ~prefix:"t" schema) e, desc))
          plan_keys
      in
      let rec cmp fns a b =
        match fns with
        | [] -> 0
        | (f, desc) :: rest ->
          let c = Value.compare (f a) (f b) in
          if c <> 0 then if desc then -c else c else cmp rest a b
      in
      let expected = Array.copy rows in
      Array.stable_sort (cmp fns) expected;
      Array.length got = Array.length expected
      && (Array.for_all2 ( == ) got expected
         || QCheck.Test.fail_reportf "got rows\n%s" (show_rows got)))

let () =
  Alcotest.run "engine"
    [
      ( "expr",
        [
          Alcotest.test_case "arithmetic" `Quick test_expr_arithmetic;
          Alcotest.test_case "division by zero" `Quick test_expr_division_by_zero;
          Alcotest.test_case "comparisons" `Quick test_expr_comparisons;
          Alcotest.test_case "like" `Quick test_expr_like;
          QCheck_alcotest.to_alcotest prop_like_matches_memo;
          QCheck_alcotest.to_alcotest prop_unboxed_arith;
          QCheck_alcotest.to_alcotest prop_compile_pred;
          Alcotest.test_case "compile_pred at the int/float 2^53 edge" `Quick
            test_compile_pred_float_int_edge;
          Alcotest.test_case "arithmetic under a mismatched schema" `Quick
            test_arith_mismatched_schema;
          Alcotest.test_case "resolution errors" `Quick test_expr_resolution_errors;
        ] );
      ( "scan/filter/project",
        [
          Alcotest.test_case "scan+filter" `Quick test_scan_and_filter;
          Alcotest.test_case "projection expressions" `Quick
            test_projection_expressions;
          Alcotest.test_case "select star" `Quick test_select_star;
          Alcotest.test_case "null filtered" `Quick test_null_filtered;
        ] );
      ( "joins",
        [
          Alcotest.test_case "hash join" `Quick test_hash_join;
          Alcotest.test_case "empty join" `Quick test_join_no_match;
          Alcotest.test_case "cross product" `Quick test_cross_product;
          Alcotest.test_case "index join equivalence" `Quick
            test_index_join_equivalence;
          Alcotest.test_case "index join used" `Quick test_index_join_used;
          Alcotest.test_case "pushdown equivalence" `Quick
            test_pushdown_equivalence;
          Alcotest.test_case "left outer join" `Quick test_left_outer_join;
          Alcotest.test_case "outer join residual ON" `Quick
            test_left_outer_join_residual_on;
          Alcotest.test_case "outer join nested loop" `Quick
            test_left_outer_join_nested_loop_path;
          Alcotest.test_case "outer join paths agree on order" `Quick
            test_left_outer_join_paths_agree;
          Alcotest.test_case "outer join keeps dangling rows" `Quick
            test_left_outer_join_all_match;
          Alcotest.test_case "outer join WHERE reads the outer table" `Quick
            test_left_outer_join_where;
          Alcotest.test_case "outer join not rewritable" `Quick
            test_outer_join_not_rewritable;
        ] );
      ( "column pruning",
        [
          Alcotest.test_case "three-way join keeps" `Quick test_prune_three_way;
          Alcotest.test_case "select star keeps all" `Quick
            test_prune_select_star;
          Alcotest.test_case "order below projection" `Quick
            test_prune_order_below_projection;
          Alcotest.test_case "ambiguous column" `Quick
            test_prune_ambiguous_column;
          Alcotest.test_case "pruning is invisible" `Quick test_prune_invisible;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "global aggregates" `Quick test_aggregates_global;
          Alcotest.test_case "count(col) skips nulls" `Quick
            test_count_column_skips_nulls;
          Alcotest.test_case "empty input" `Quick test_aggregate_empty_input;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "group by empty input" `Quick
            test_group_by_empty_input_no_groups;
          Alcotest.test_case "having" `Quick test_having;
          Alcotest.test_case "group by expression" `Quick test_group_expression;
          Alcotest.test_case "aggregate of expression" `Quick
            test_aggregate_of_expression;
        ] );
      ( "sort/distinct/limit",
        [
          Alcotest.test_case "order by" `Quick test_order_by;
          Alcotest.test_case "order by alias" `Quick test_order_by_alias;
          Alcotest.test_case "order by unprojected" `Quick
            test_order_by_unprojected_column;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "limit" `Quick test_limit;
          QCheck_alcotest.to_alcotest prop_sort;
          Alcotest.test_case "below project, DESC with NULL" `Quick
            test_order_below_project_desc_null;
          Alcotest.test_case "below project, ties" `Quick test_order_below_project_ties;
          Alcotest.test_case "below project, computed keys" `Quick
            test_order_below_project_computed;
        ] );
      ( "planner errors",
        [
          Alcotest.test_case "unknown table" `Quick test_unknown_table;
          Alcotest.test_case "duplicate alias" `Quick test_duplicate_alias;
          Alcotest.test_case "unbound column" `Quick
            test_ambiguous_column_rejected;
        ] );
      ( "stats",
        [
          Alcotest.test_case "analyze" `Quick test_stats;
          Alcotest.test_case "selectivity" `Quick test_selectivity;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "histogram boundary cdf" `Quick
            test_histogram_boundary_cdf;
          Alcotest.test_case "histogram selectivity" `Quick
            test_histogram_selectivity;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "exec spans form the plan tree" `Quick
            test_exec_span_tree;
          Alcotest.test_case "explain analyze" `Quick test_span_tree_text;
          Alcotest.test_case "explain analyze row counts" `Quick
            test_span_row_counts;
          Alcotest.test_case "operator times monotone" `Quick
            test_operator_times_monotone;
        ] );
      ( "streamed joins",
        [
          QCheck_alcotest.to_alcotest prop_streamed_joins;
          Alcotest.test_case "budget prefixes through a filter" `Quick
            test_streamed_budget_prefixes;
          Alcotest.test_case "span tree and row counts" `Quick test_streamed_spans;
        ] );
      ( "index",
        [
          Alcotest.test_case "lookup" `Quick test_index_lookup;
          QCheck_alcotest.to_alcotest prop_index_lookup;
        ] );
    ]
