(* Tests for the SQL lexer, parser, and pretty-printer. *)

open Sql

let parse = Parser.parse_query
let parse_e = Parser.parse_expr

(* ---- lexer ---- *)

let tokens s = List.map fst (Lexer.tokenize s)

let test_lexer_basics () =
  Alcotest.(check int) "token count" 5 (List.length (tokens "select * from t"));
  (match tokens "select" with
  | [ Lexer.KEYWORD "SELECT"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "keyword");
  (match tokens "foo.bar" with
  | [ Lexer.IDENT "foo"; Lexer.DOT; Lexer.IDENT "bar"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "qualified name")

let test_lexer_numbers () =
  (match tokens "42 4.5 1e3 0.25" with
  | [ Lexer.INT 42; Lexer.FLOAT a; Lexer.FLOAT b; Lexer.FLOAT c; Lexer.EOF ] ->
    Alcotest.(check (float 1e-9)) "4.5" 4.5 a;
    Alcotest.(check (float 1e-9)) "1e3" 1000.0 b;
    Alcotest.(check (float 1e-9)) "0.25" 0.25 c
  | _ -> Alcotest.fail "numbers")

let test_lexer_strings () =
  (match tokens "'hello' 'it''s'" with
  | [ Lexer.STRING "hello"; Lexer.STRING "it's"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "strings");
  match Lexer.tokenize "'unterminated" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "unterminated string accepted"

let test_lexer_operators () =
  (match tokens "<= >= <> != = < >" with
  | [
   Lexer.OP "<="; Lexer.OP ">="; Lexer.OP "<>"; Lexer.OP "<>"; Lexer.OP "=";
   Lexer.OP "<"; Lexer.OP ">"; Lexer.EOF;
  ] ->
    ()
  | _ -> Alcotest.fail "operators")

let test_lexer_comments () =
  (match tokens "select -- a comment\n 1" with
  | [ Lexer.KEYWORD "SELECT"; Lexer.INT 1; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "comment skipped")

(* ---- parser ---- *)

let test_parse_simple () =
  let q = parse "select a, b from t where a > 5" in
  (match q.select with
  | Items [ { expr = Col { name = "a"; _ }; _ }; { expr = Col { name = "b"; _ }; _ } ]
    ->
    ()
  | _ -> Alcotest.fail "select list");
  Alcotest.(check int) "one table" 1 (List.length q.from);
  Alcotest.(check bool) "where present" true (Option.is_some q.where)

let test_parse_aliases () =
  let q = parse "select c.id as key, o.x y from customer c, orders as o" in
  (match q.select with
  | Items [ { alias = Some "key"; _ }; { alias = Some "y"; _ } ] -> ()
  | _ -> Alcotest.fail "aliases");
  match q.from with
  | [ { table = "customer"; t_alias = Some "c" }; { table = "orders"; t_alias = Some "o" } ]
    ->
    ()
  | _ -> Alcotest.fail "from aliases"

let test_parse_precedence () =
  (* AND binds tighter than OR; comparison tighter than AND *)
  let e = parse_e "a = 1 or b = 2 and c = 3" in
  (match e with
  | Binop (Or, Binop (Eq, _, _), Binop (And, _, _)) -> ()
  | _ -> Alcotest.fail "boolean precedence");
  let e = parse_e "1 + 2 * 3" in
  (match e with
  | Binop (Add, Lit _, Binop (Mul, _, _)) -> ()
  | _ -> Alcotest.fail "arithmetic precedence");
  let e = parse_e "(1 + 2) * 3" in
  match e with
  | Binop (Mul, Binop (Add, _, _), Lit _) -> ()
  | _ -> Alcotest.fail "parentheses"

let test_parse_predicates () =
  (match parse_e "x like 'a%'" with
  | Like (_, "a%") -> ()
  | _ -> Alcotest.fail "like");
  (match parse_e "x not like 'a%'" with
  | Not_like (_, "a%") -> ()
  | _ -> Alcotest.fail "not like");
  (match parse_e "x in (1, 2, 3)" with
  | In_list (_, [ _; _; _ ]) -> ()
  | _ -> Alcotest.fail "in");
  (match parse_e "x between 1 and 10" with
  | Between (_, _, _) -> ()
  | _ -> Alcotest.fail "between");
  (match parse_e "x is null" with
  | Is_null _ -> ()
  | _ -> Alcotest.fail "is null");
  (match parse_e "x is not null" with
  | Is_not_null _ -> ()
  | _ -> Alcotest.fail "is not null");
  match parse_e "not x = 1" with
  | Unop (Not, Binop (Eq, _, _)) -> ()
  | _ -> Alcotest.fail "not"

let test_parse_dates () =
  (match parse_e "d < date '1995-03-15'" with
  | Binop (Lt, _, Lit (Dirty.Value.Date _)) -> ()
  | _ -> Alcotest.fail "date literal");
  (match parse_e "d < date '2021-02-30'" with
  | exception Sql.Parser.Error _ -> ()
  | _ -> Alcotest.fail "impossible date literal accepted");
  (* int_of_string syntax inside a part is not a date *)
  match parse_e "d >= date '1_995-0x3-0_1'" with
  | exception Sql.Parser.Error _ -> ()
  | _ -> Alcotest.fail "date literal with _ and 0x accepted"

let test_parse_aggregates () =
  let q = parse "select id, count(*), sum(a * b) from t group by id having count(*) > 2" in
  (match q.select with
  | Items [ _; { expr = Agg (Count, None); _ }; { expr = Agg (Sum, Some _); _ } ] -> ()
  | _ -> Alcotest.fail "aggregates");
  Alcotest.(check int) "group by" 1 (List.length q.group_by);
  Alcotest.(check bool) "having" true (Option.is_some q.having)

let test_parse_order_limit_distinct () =
  let q = parse "select distinct a from t order by a desc, b limit 10" in
  Alcotest.(check bool) "distinct" true q.distinct;
  (match q.order_by with
  | [ { desc = true; _ }; { desc = false; _ } ] -> ()
  | _ -> Alcotest.fail "order by");
  Alcotest.(check (option int)) "limit" (Some 10) q.limit

let test_parse_join_on () =
  (* JOIN ... ON desugars into the FROM list plus WHERE conjuncts *)
  let q =
    parse
      "select a.x from t a join u b on a.k = b.k inner join v c on c.j = b.j \
       cross join w where a.x > 1"
  in
  Alcotest.(check int) "four tables" 4 (List.length q.from);
  (match q.where with
  | Some w -> Alcotest.(check int) "three conjuncts" 3 (List.length (Ast.conjuncts w))
  | None -> Alcotest.fail "where missing");
  (* a JOIN without ON is an error *)
  (match parse "select x from t join u" with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.fail "JOIN without ON accepted");
  (* pure join query, no WHERE *)
  let q2 = parse "select a.x from t a join u b on a.k = b.k" in
  Alcotest.(check bool) "ON becomes WHERE" true (Option.is_some q2.where)

let test_parse_star () =
  let q = parse "select * from t" in
  match q.select with Star -> () | _ -> Alcotest.fail "star"

let test_parse_errors () =
  let bad = [ "select"; "select from t"; "select a from"; "select a t";
              "select a from t where"; "select a from t limit x" ] in
  List.iter
    (fun sql ->
      match parse sql with
      | exception Parser.Error _ -> ()
      | _ -> Alcotest.failf "accepted %S" sql)
    bad

let test_parse_keywords_case_insensitive () =
  let q = parse "SELECT a FROM t WHERE a > 1 ORDER BY a" in
  Alcotest.(check int) "order" 1 (List.length q.order_by)

(* ---- pretty printer round-trips ---- *)

let roundtrip sql =
  let q = parse sql in
  let printed = Pretty.query_to_string q in
  let q' = parse printed in
  let printed' = Pretty.query_to_string q' in
  Alcotest.(check string) ("fixpoint of " ^ sql) printed printed'

let test_roundtrip_queries () =
  List.iter roundtrip
    [
      "select a from t";
      "select distinct a, b as x from t u where a > 1 and b < 2 or c = 3";
      "select a from t where x like 'a%' and y in (1,2) order by a desc limit 3";
      "select id, sum(p * q) from t group by id having sum(p * q) > 0.5";
      "select a from t where d between date '1995-01-01' and date '1995-12-31'";
      "select a from t where not (a = 1 or b = 2)";
      "select a + b * c - d / e from t";
      "select -a from t where -b > 1";
      "select a from t where s = 'it''s'";
    ]

let test_roundtrip_tpch () =
  List.iter (fun (q : Tpch.Queries.query) -> roundtrip q.sql) Tpch.Queries.all

let test_pretty_parenthesization () =
  (* (a or b) and c must keep its parentheses *)
  let e = parse_e "(a = 1 or b = 2) and c = 3" in
  let printed = Pretty.expr_to_string e in
  match parse_e printed with
  | Binop (And, Binop (Or, _, _), _) -> ()
  | _ -> Alcotest.failf "parentheses lost: %s" printed

let test_pretty_left_nested_bool () =
  (* AND/OR parse right-associative, so a left-nested chain must be
     printed with its left child parenthesized to reparse structurally *)
  let a = parse_e "a = 1" and b = parse_e "b = 2" and c = parse_e "c = 3" in
  let check e =
    let printed = Pretty.expr_to_string e in
    let reparsed = parse_e printed in
    if reparsed <> e then
      Alcotest.failf "left-nested chain changed shape: %s" printed
  in
  check (Ast.Binop (Or, Binop (Or, a, b), c));
  check (Ast.Binop (And, Binop (And, a, b), c));
  check (Ast.Binop (Or, Binop (And, Binop (And, a, b), c), b))

let test_conj_helpers () =
  let e = parse_e "a = 1 and b = 2 and c = 3" in
  Alcotest.(check int) "three conjuncts" 3 (List.length (Ast.conjuncts e));
  match Ast.conj (Ast.conjuncts e) with
  | Some e' ->
    Alcotest.(check int) "refold" 3 (List.length (Ast.conjuncts e'))
  | None -> Alcotest.fail "conj"

let () =
  Alcotest.run "sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "strings" `Quick test_lexer_strings;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "aliases" `Quick test_parse_aliases;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "predicates" `Quick test_parse_predicates;
          Alcotest.test_case "dates" `Quick test_parse_dates;
          Alcotest.test_case "aggregates" `Quick test_parse_aggregates;
          Alcotest.test_case "order/limit/distinct" `Quick
            test_parse_order_limit_distinct;
          Alcotest.test_case "join-on desugaring" `Quick test_parse_join_on;
          Alcotest.test_case "star" `Quick test_parse_star;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "case-insensitive keywords" `Quick
            test_parse_keywords_case_insensitive;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "round trips" `Quick test_roundtrip_queries;
          Alcotest.test_case "TPC-H queries round trip" `Quick test_roundtrip_tpch;
          Alcotest.test_case "parenthesization" `Quick
            test_pretty_parenthesization;
          Alcotest.test_case "left-nested and/or chains" `Quick
            test_pretty_left_nested_bool;
          Alcotest.test_case "conjunct helpers" `Quick test_conj_helpers;
        ] );
    ]
