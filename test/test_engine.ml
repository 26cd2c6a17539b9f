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
  | Left_outer_join { left; right; _ } | Cross (left, right) ->
    joins left @ joins right

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
  | Left_outer_join j ->
    Left_outer_join
      { j with left = strip_keeps j.left; right = strip_keeps j.right }
  | Cross (a, b) -> Cross (strip_keeps a, strip_keeps b)

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
   pruned plan answers bitwise as the same plan with pruning stripped:
   at jobs 1 and 4, and with every hash join spilled to disk. *)

(* pruned hash joins and index joins seen by the property *)
let pruned_hash = ref 0 and pruned_index = ref 0

let prop_prune_invisible =
  QCheck.Test.make ~count:200
    ~name:"pruned joins answer bitwise as unpruned (jobs 1, 4, spill)"
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
      Testutil.with_temp_dir @@ fun spill_dir ->
      let run ~jobs ?spill plan =
        match Engine.Exec.run ~jobs ?spill catalog plan with
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
            List.for_all
              (fun (label, jobs, spill) ->
                let pruned = run ~jobs ?spill plan
                and unpruned = run ~jobs ?spill (strip_keeps plan) in
                match pruned, unpruned with
                | Ok a, Ok b when Testutil.rows_bits_equal a b -> true
                | Error a, Error b when a = b -> true
                | _ ->
                  QCheck.Test.fail_reportf
                    "%s: pruned differs from unpruned on\n%s" label
                    (Engine.Plan.to_string plan))
              [
                ("jobs=1", 1, None);
                ("jobs=4", 4, None);
                ( "spill",
                  1,
                  Some { Engine.Exec.spill_rows = 1; spill_dir } );
              ])
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

(* ---- profiling ---- *)

let test_run_profiled () =
  let engine = db () in
  let sql = "select e.name, d.dname from emp e, dept d where e.dept = d.did" in
  let rel, profile = Engine.Database.query_profiled engine sql in
  Alcotest.(check int) "result rows" 4 (Relation.cardinality rel);
  Alcotest.(check string) "root operator" "Project" profile.Engine.Exec.operator;
  Alcotest.(check int) "root row count" 4 profile.Engine.Exec.out_rows;
  (* the join and its two scans appear beneath the projection *)
  let rec operators (p : Engine.Exec.profile) =
    p.operator :: List.concat_map operators p.children
  in
  let ops = operators profile in
  Alcotest.(check bool) "has a join" true
    (List.exists
       (fun o ->
         o = "HashJoin" || String.length o >= 9 && String.sub o 0 9 = "IndexJoin")
       ops);
  Alcotest.(check bool) "scans both tables" true
    (List.mem "Scan emp" ops && List.mem "Scan dept" ops);
  (* timings are nonnegative and the root dominates its children *)
  let rec check_times (p : Engine.Exec.profile) =
    Alcotest.(check bool) "time nonneg" true (p.elapsed >= 0.0);
    List.iter check_times p.children
  in
  check_times profile

let test_explain_analyze_text () =
  let engine = db () in
  let text =
    Engine.Database.explain_analyze engine "select name from emp where salary > 150"
  in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions rows" true (contains "rows=");
  Alcotest.(check bool) "mentions the scan" true (contains "Scan emp")

let test_explain_analyze_row_counts () =
  (* per-operator row counts are the actual cardinalities, not
     estimates: the scans see whole tables, the filter and everything
     above it see the surviving rows *)
  let engine = db () in
  let sql = "select e.name, d.dname from emp e, dept d where e.dept = d.did" in
  let _, profile = Engine.Database.query_profiled engine sql in
  let rec find op (p : Engine.Exec.profile) =
    if p.operator = op then Some p
    else List.find_map (find op) p.children
  in
  let rows op =
    match find op profile with
    | Some p -> p.out_rows
    | None -> Alcotest.failf "no %s operator in the profile" op
  in
  Alcotest.(check int) "projection emits the join result" 4 (rows "Project");
  Alcotest.(check int) "emp scanned in full" 5 (rows "Scan emp");
  Alcotest.(check int) "dept scanned in full" 3 (rows "Scan dept");
  let text = Engine.Database.explain_analyze engine sql in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rendered counts match" true (contains "rows=4");
  Alcotest.(check bool) "scan counts rendered" true (contains "rows=5")

let test_operator_times_monotone () =
  (* operator times are inclusive of their inputs, so they must be
     monotone along every root-to-leaf path; and across plans, a scan
     over many rows must not be cheaper than one over a handful *)
  let engine = db () in
  let _, profile =
    Engine.Database.query_profiled engine
      "select e.name, d.dname from emp e, dept d where e.dept = d.did"
  in
  let rec check_parent_covers (p : Engine.Exec.profile) =
    List.iter
      (fun (child : Engine.Exec.profile) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s covers %s" p.operator child.operator)
          true
          (p.elapsed +. 1e-9 >= child.elapsed);
        check_parent_covers child)
      p.children
  in
  check_parent_covers profile;
  let scan_time n =
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
          let _, p = Engine.Database.query_profiled engine "select v from t" in
          let rec total (p : Engine.Exec.profile) =
            List.fold_left (fun acc c -> acc +. total c) p.elapsed p.children
          in
          total p)
    in
    (Telemetry.Timing.of_samples samples).median
  in
  Alcotest.(check bool) "times grow with row counts" true
    (scan_time 50_000 >= scan_time 50)

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
  Alcotest.(check (list int)) "bucket" [ 0; 2 ] (Engine.Index.lookup idx (v_i 1));
  Alcotest.(check (list int)) "missing" [] (Engine.Index.lookup idx (v_i 99));
  Alcotest.(check int) "distinct keys" 2 (Engine.Index.distinct_keys idx)

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
          Alcotest.test_case "outer join keeps dangling rows" `Quick
            test_left_outer_join_all_match;
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
          Alcotest.test_case "run_profiled" `Quick test_run_profiled;
          Alcotest.test_case "explain analyze" `Quick test_explain_analyze_text;
          Alcotest.test_case "explain analyze row counts" `Quick
            test_explain_analyze_row_counts;
          Alcotest.test_case "operator times monotone" `Quick
            test_operator_times_monotone;
        ] );
      ("index", [ Alcotest.test_case "lookup" `Quick test_index_lookup ]);
    ]
