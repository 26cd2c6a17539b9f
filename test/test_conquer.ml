(* Tests for the clean-answers semantics, the rewriting, and the
   possible-worlds oracle — including every number the paper's
   running examples publish. *)

open Dirty

let v_s s = Value.String s
let v_i i = Value.Int i
let v_f f = Value.Float f

let session () = Conquer.Clean.create (Fixtures.figure2_db ())
let loyalty_session () = Conquer.Clean.create (Fixtures.loyalty_db ())

(* ---- candidate databases (Examples 2 and 3) ---- *)

let test_candidate_count () =
  let db = Fixtures.figure2_db () in
  Alcotest.(check (float 1e-9)) "8 candidates" 8.0 (Conquer.Candidates.count db)

let test_candidate_probabilities () =
  let db = Fixtures.figure2_db () in
  let probs =
    Conquer.Candidates.fold db (fun acc _sel p -> p :: acc) []
    |> List.sort Float.compare
  in
  (* Example 3: 0.07, 0.28, 0.03, 0.12, 0.07, 0.28, 0.03, 0.12 *)
  let expected = List.sort Float.compare [ 0.07; 0.28; 0.03; 0.12; 0.07; 0.28; 0.03; 0.12 ] in
  List.iter2 (Fixtures.check_float "candidate probability") expected probs

let test_candidate_mass () =
  let db = Fixtures.figure2_db () in
  let total = Conquer.Candidates.fold db (fun acc _ p -> acc +. p) 0.0 in
  Fixtures.check_float "candidate probabilities sum to 1" 1.0 total

let test_candidate_selection_shape () =
  let db = Fixtures.figure2_db () in
  Conquer.Candidates.fold db
    (fun () sel _p ->
      Alcotest.(check int)
        "orders candidate has 2 rows" 2
        (List.length (Conquer.Candidates.chosen_rows sel "orders"));
      Alcotest.(check int)
        "customer candidate has 2 rows" 2
        (List.length (Conquer.Candidates.chosen_rows sel "customer")))
    ()

(* ---- Example 4 / Example 5: query q1 ---- *)

let test_q1_oracle () =
  let db = Fixtures.figure2_db () in
  let result =
    Conquer.Candidates.clean_answers db (Sql.Parser.parse_query Fixtures.q1)
  in
  Fixtures.expect_answer result [ v_s "c1" ] 1.0;
  Fixtures.expect_answer result [ v_s "c2" ] 0.2

let test_q1_rewritten () =
  let s = session () in
  let result = Conquer.Clean.answers s Fixtures.q1 in
  Fixtures.expect_answer result [ v_s "c1" ] 1.0;
  Fixtures.expect_answer result [ v_s "c2" ] 0.2

(* ---- Example 6: query q2 ---- *)

let test_q2_rewritten () =
  let s = session () in
  let result = Conquer.Clean.answers s Fixtures.q2 in
  Alcotest.(check int) "three answers" 3 (Relation.cardinality result);
  Fixtures.expect_answer result [ v_s "o1"; v_s "c1" ] 1.0;
  Fixtures.expect_answer result [ v_s "o2"; v_s "c1" ] 0.5;
  Fixtures.expect_answer result [ v_s "o2"; v_s "c2" ] 0.1

let test_q2_oracle_agrees () =
  let s = session () in
  let db = Fixtures.figure2_db () in
  let oracle =
    Conquer.Candidates.clean_answers db (Sql.Parser.parse_query Fixtures.q2)
  in
  let rewritten = Conquer.Clean.answers s Fixtures.q2 in
  Alcotest.(check int)
    "same cardinality"
    (Relation.cardinality oracle)
    (Relation.cardinality rewritten);
  Relation.iter
    (fun row ->
      let key = [ row.(0); row.(1) ] in
      let expected = Option.get (Fixtures.answer_prob oracle key) in
      Fixtures.expect_answer rewritten key expected)
    oracle

(* ---- Example 7: query q3 — where naive rewriting over-counts ---- *)

let test_q3_not_rewritable () =
  let s = session () in
  match Conquer.Clean.check s Fixtures.q3 with
  | Ok _ -> Alcotest.fail "q3 should not be rewritable"
  | Error violations ->
    let is_root_violation = function
      | Conquer.Rewritable.Root_identifier_not_selected { root; id_attr } ->
        root = "o" && id_attr = "id"
      | _ -> false
    in
    Alcotest.(check bool)
      "violation is the missing root identifier" true
      (List.exists is_root_violation violations)

let test_q3_oracle_truth () =
  let db = Fixtures.figure2_db () in
  let result =
    Conquer.Candidates.clean_answers db (Sql.Parser.parse_query Fixtures.q3)
  in
  (* customer c1 has probability 0.3; c2 is not a clean answer at all *)
  Fixtures.expect_answer result [ v_s "c1" ] 0.3;
  Fixtures.expect_no_answer result [ v_s "c2" ]

let test_q3_unchecked_overcounts () =
  let s = session () in
  let result = Conquer.Clean.answers_unchecked s Fixtures.q3 in
  (* the paper: grouping-and-summing incorrectly returns (c1, 0.45) *)
  Fixtures.expect_answer result [ v_s "c1" ] 0.45

let test_q3_answers_raises () =
  let s = session () in
  match Conquer.Clean.answers s Fixtures.q3 with
  | exception Conquer.Rewrite.Not_rewritable _ -> ()
  | _ -> Alcotest.fail "expected Not_rewritable"

(* ---- the introduction's loyalty-card example ---- *)

let test_loyalty_example () =
  let s = loyalty_session () in
  let sql =
    "select l.cardid from loyaltycard l, customer c \
     where l.custfk = c.custid and c.income > 100000"
  in
  let result = Conquer.Clean.answers s sql in
  (* card 111 has 60% probability of belonging to a customer earning
     over $100K *)
  Fixtures.expect_answer result [ v_i 111 ] 0.6;
  let oracle =
    Conquer.Candidates.clean_answers (Fixtures.loyalty_db ())
      (Sql.Parser.parse_query sql)
  in
  Fixtures.expect_answer oracle [ v_i 111 ] 0.6

let test_loyalty_offline_cleaning_fails () =
  (* The introduction's motivation: keeping only the most probable
     tuple per cluster and querying the result misses card 111. *)
  let db = Fixtures.loyalty_db () in
  let keep_best (t : Dirty_db.table) =
    let best =
      Cluster.fold
        (fun _id members acc ->
          let best =
            List.fold_left
              (fun best i ->
                match best with
                | None -> Some i
                | Some j ->
                  if Dirty_db.row_probability t i > Dirty_db.row_probability t j
                  then Some i
                  else best)
              None members
          in
          Option.get best :: acc)
        t.clustering []
    in
    Relation.create
      (Relation.schema t.relation)
      (List.rev_map (Relation.get t.relation) best)
  in
  let engine = Engine.Database.create () in
  List.iter
    (fun (t : Dirty_db.table) ->
      Engine.Database.add_relation engine ~name:t.name (keep_best t))
    (Dirty_db.tables db);
  let result =
    Engine.Database.query engine
      "select l.cardid from loyaltycard l, customer c \
       where l.custfk = c.custid and c.income > 100000"
  in
  Alcotest.(check int) "offline cleaning loses card 111" 0
    (Relation.cardinality result)

(* ---- join graph and the rewritable class ---- *)

let env () = Conquer.Clean.env (session ())

let test_join_graph_q2 () =
  let graph =
    Conquer.Join_graph.build (env ()) (Sql.Parser.parse_query Fixtures.q2)
  in
  Alcotest.(check (list string)) "vertices" [ "o"; "c" ] graph.vertices;
  (match graph.arcs with
  | [ arc ] ->
    Alcotest.(check string) "arc source" "o" arc.from_alias;
    Alcotest.(check string) "arc source attr" "cidfk" arc.from_attr;
    Alcotest.(check string) "arc target" "c" arc.to_alias;
    Alcotest.(check string) "arc target attr" "id" arc.to_attr
  | arcs -> Alcotest.failf "expected one arc, got %d" (List.length arcs));
  Alcotest.(check bool) "is a tree" true (Conquer.Join_graph.is_tree graph);
  Alcotest.(check (list string)) "root" [ "o" ] (Conquer.Join_graph.roots graph)

let test_single_relation_is_tree () =
  let graph =
    Conquer.Join_graph.build (env ()) (Sql.Parser.parse_query Fixtures.q1)
  in
  Alcotest.(check bool) "single vertex is a tree" true
    (Conquer.Join_graph.is_tree graph)

let test_self_join_rejected () =
  let sql = "select a.id from customer a, customer b where a.id = b.id" in
  match Conquer.Clean.check (session ()) sql with
  | Ok _ -> Alcotest.fail "self-join should be rejected"
  | Error vs ->
    Alcotest.(check bool) "repeated relation reported" true
      (List.exists
         (function Conquer.Rewritable.Repeated_relation "customer" -> true | _ -> false)
         vs)

let test_non_identifier_join_rejected () =
  let sql =
    "select o.id, c.id from orders o, customer c where o.custfk = c.custid"
  in
  (* customer.custid IS the identifier of customer in Figure 1, but in
     the Figure 2 database the identifier is [id], so custfk = custid
     joins two non-identifiers *)
  match Conquer.Clean.check (session ()) sql with
  | Ok _ -> Alcotest.fail "non-identifier join should be rejected"
  | Error vs ->
    Alcotest.(check bool) "join-without-identifier reported" true
      (List.exists
         (function
           | Conquer.Rewritable.Join_without_identifier _ -> true
           | Conquer.Rewritable.Graph_not_tree _ -> false
           | _ -> false)
         vs)

let test_aggregate_query_rejected () =
  let sql = "select id, count(*) from customer group by id" in
  match Conquer.Clean.check (session ()) sql with
  | Ok _ -> Alcotest.fail "aggregate query should be rejected"
  | Error vs ->
    Alcotest.(check bool) "not-SPJ reported" true
      (List.exists
         (function Conquer.Rewritable.Not_spj _ -> true | _ -> false)
         vs)

let test_cross_product_not_tree () =
  let sql = "select o.id, c.id from orders o, customer c" in
  match Conquer.Clean.check (session ()) sql with
  | Ok _ -> Alcotest.fail "cross product should be rejected"
  | Error vs ->
    Alcotest.(check bool) "graph-not-tree reported" true
      (List.exists
         (function Conquer.Rewritable.Graph_not_tree _ -> true | _ -> false)
         vs)

(* a three-relation database whose foreign keys can close a cycle:
   t1 references t0, and t2 references both *)
let triangle_db () =
  let table name columns row =
    Dirty_db.make_table ~name ~id_attr:"id" ~prob_attr:"prob"
      (Relation.create (Schema.make columns) [ row ])
  in
  List.fold_left Dirty_db.add_table Dirty_db.empty
    [
      table "t0"
        [ ("id", Value.TInt); ("prob", Value.TFloat) ]
        [| v_i 0; v_f 1.0 |];
      table "t1"
        [ ("id", Value.TInt); ("fkt0", Value.TInt); ("prob", Value.TFloat) ]
        [| v_i 0; v_i 0; v_f 1.0 |];
      table "t2"
        [
          ("id", Value.TInt); ("fkt0", Value.TInt); ("fkt1", Value.TInt);
          ("prob", Value.TFloat);
        ]
        [| v_i 0; v_i 0; v_i 0; v_f 1.0 |];
    ]

let test_cyclic_join_graph_rejected () =
  let s = Conquer.Clean.create (triangle_db ()) in
  let sql =
    "select r0.id, r1.id, r2.id from t0 r0, t1 r1, t2 r2 \
     where r1.fkt0 = r0.id and r2.fkt1 = r1.id and r2.fkt0 = r0.id"
  in
  match Conquer.Clean.check s sql with
  | Ok _ -> Alcotest.fail "cyclic join graph should be rejected"
  | Error vs ->
    Alcotest.(check bool) "graph-not-tree reported" true
      (List.exists
         (function Conquer.Rewritable.Graph_not_tree _ -> true | _ -> false)
         vs)

let test_root_identifier_not_projected () =
  (* the join-graph root is orders; selecting only the customer side's
     identifier must name the precise missing column *)
  let sql = "select c.id from orders o, customer c where o.cidfk = c.id" in
  match Conquer.Clean.check (session ()) sql with
  | Ok _ -> Alcotest.fail "dropped root identifier should be rejected"
  | Error vs ->
    Alcotest.(check bool) "missing o.id reported" true
      (List.exists
         (function
           | Conquer.Rewritable.Root_identifier_not_selected
               { root = "o"; id_attr = "id" } ->
             true
           | _ -> false)
         vs)

(* the SPJ frontier shapes the rewriting cannot honour: each must be
   rejected with a Not_spj naming the offending clause, because the
   grouped rewriting would silently change their semantics (LIMIT and
   ORDER BY act per candidate database, not on the clean answers) *)
let expect_not_spj name sql fragment =
  match Conquer.Clean.check (session ()) sql with
  | Ok _ -> Alcotest.failf "%s should be rejected" name
  | Error vs ->
    Alcotest.(check bool) name true
      (List.exists
         (function
           | Conquer.Rewritable.Not_spj why ->
             (* the diagnostic names the clause *)
             let contains s sub =
               let n = String.length sub in
               let rec go i =
                 i + n <= String.length s
                 && (String.sub s i n = sub || go (i + 1))
               in
               go 0
             in
             contains why fragment
           | _ -> false)
         vs)

let test_select_star_rejected () =
  expect_not_spj "SELECT * rejected" "select * from customer" "SELECT *"

let test_order_by_rejected () =
  (* ordering by a selected column is fine (it survives the GROUP BY
     the rewriting adds); ordering by a dropped one is not *)
  (match Conquer.Clean.check (session ()) "select id from customer order by id"
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "ORDER BY on a selected column is rewritable");
  expect_not_spj "ORDER BY on dropped column rejected"
    "select id from customer order by balance" "ORDER BY"

let test_limit_rejected () =
  expect_not_spj "LIMIT rejected" "select id from customer limit 1" "LIMIT"

(* ---- the rewriting's SQL output ---- *)

let test_rewrite_text_q1 () =
  match Conquer.Clean.rewrite (session ()) Fixtures.q1 with
  | Error _ -> Alcotest.fail "q1 is rewritable"
  | Ok text ->
    let q = Sql.Parser.parse_query text in
    Alcotest.(check int) "one group-by column" 1 (List.length q.group_by);
    (match q.select with
    | Items [ _; { expr = Agg (Sum, Some _); alias = Some a } ] ->
      Alcotest.(check string) "probability alias" Conquer.Rewrite.prob_column a
    | _ -> Alcotest.fail "unexpected rewritten select list")

let test_rewrite_text_q2_roundtrip () =
  match Conquer.Clean.rewrite (session ()) Fixtures.q2 with
  | Error _ -> Alcotest.fail "q2 is rewritable"
  | Ok text ->
    (* the rewritten SQL re-parses and evaluates to the clean answers *)
    let result = Engine.Database.query (Conquer.Clean.engine (session ())) text in
    Fixtures.expect_answer result [ v_s "o2"; v_s "c1" ] 0.5

let test_rewrite_preserves_order_by () =
  let sql = Fixtures.q2 ^ " order by o.id desc" in
  match Conquer.Clean.rewrite (session ()) sql with
  | Error _ -> Alcotest.fail "rewritable"
  | Ok text ->
    let q = Sql.Parser.parse_query text in
    Alcotest.(check int) "order by preserved" 1 (List.length q.order_by)

(* ---- subqueries under clean semantics ---- *)

let subquery_sql =
  "select id from customer where balance > (select min(balance) from customer)"

let test_subquery_not_rewritable () =
  let s = session () in
  match Conquer.Clean.check s subquery_sql with
  | Ok _ -> Alcotest.fail "subquery should not be rewritable"
  | Error vs ->
    Alcotest.(check bool) "not-SPJ violation" true
      (List.exists
         (function Conquer.Rewritable.Not_spj _ -> true | _ -> false)
         vs)

let test_subquery_oracle () =
  (* the oracle evaluates the subquery against each candidate, so the
     nested MIN varies with the world: P(c1) = 0.86, P(c2) = 0.14 *)
  let db = Fixtures.figure2_db () in
  let result =
    Conquer.Candidates.clean_answers db (Sql.Parser.parse_query subquery_sql)
  in
  Fixtures.expect_answer result [ v_s "c1" ] 0.86;
  Fixtures.expect_answer result [ v_s "c2" ] 0.14

let test_subquery_sampler_converges () =
  let s = session () in
  let result = Conquer.Sampler.answers ~seed:5 ~samples:4000 s subquery_sql in
  let prob key =
    let row =
      List.find
        (fun r -> Value.equal r.(0) (v_s key))
        (Relation.row_list result)
    in
    Option.get (Value.to_float row.(1))
  in
  Alcotest.(check bool)
    (Printf.sprintf "c1 estimate %.3f near 0.86" (prob "c1"))
    true
    (Float.abs (prob "c1" -. 0.86) < 0.03);
  Alcotest.(check bool)
    (Printf.sprintf "c2 estimate %.3f near 0.14" (prob "c2"))
    true
    (Float.abs (prob "c2" -. 0.14) < 0.03)

(* ---- provenance explanations ---- *)

let test_provenance_q2 () =
  let s = session () in
  let explanations = Conquer.Provenance.explain s Fixtures.q2 in
  Alcotest.(check int) "three answers explained" 3 (List.length explanations);
  (* the (o2, c1) answer decomposes as 0.35 + 0.15 *)
  let o2c1 =
    List.find
      (fun (e : Conquer.Provenance.explanation) ->
        Value.equal e.answer.(0) (v_s "o2") && Value.equal e.answer.(1) (v_s "c1"))
      explanations
  in
  Fixtures.check_float "total is the clean probability" 0.5 o2c1.total;
  (match o2c1.contributions with
  | [ a; b ] ->
    Fixtures.check_float "largest contribution" 0.35 a.mass;
    Fixtures.check_float "second contribution" 0.15 b.mass;
    (match a.witnesses with
    | [ o; c ] ->
      Alcotest.(check string) "orders witness" "orders" o.w_table;
      Fixtures.check_float "orders duplicate prob" 0.5 o.w_probability;
      Alcotest.(check string) "customer witness" "customer" c.w_table;
      Fixtures.check_float "customer duplicate prob" 0.7 c.w_probability
    | _ -> Alcotest.fail "expected two witnesses")
  | _ -> Alcotest.fail "expected two contributions");
  (* every explanation's total matches the rewriting's answer *)
  let answers = Conquer.Clean.answers s Fixtures.q2 in
  List.iter
    (fun (e : Conquer.Provenance.explanation) ->
      let expected =
        Option.get (Fixtures.answer_prob answers (Array.to_list e.answer))
      in
      Fixtures.check_float "total = clean_prob" expected e.total)
    explanations

let test_provenance_sorted () =
  let s = session () in
  let explanations = Conquer.Provenance.explain s Fixtures.q2 in
  let totals = List.map (fun (e : Conquer.Provenance.explanation) -> e.total) explanations in
  Alcotest.(check (list (float 1e-9)))
    "descending totals" (List.sort (fun a b -> Float.compare b a) totals) totals

let test_provenance_rejects_unrewritable () =
  let s = session () in
  match Conquer.Provenance.explain s Fixtures.q3 with
  | exception Conquer.Rewrite.Not_rewritable _ -> ()
  | _ -> Alcotest.fail "q3 should be rejected"

let test_provenance_pp () =
  let s = session () in
  let explanations = Conquer.Provenance.explain s Fixtures.q1 in
  let text =
    String.concat ""
      (List.map (Format.asprintf "%a" Conquer.Provenance.pp_explanation) explanations)
  in
  Alcotest.(check bool) "mentions customer" true
    (String.length text > 0
    &&
    let rec contains i =
      i + 8 <= String.length text
      && (String.sub text i 8 = "customer" || contains (i + 1))
    in
    contains 0)

(* ---- ranking helpers ---- *)

let test_top_answers () =
  let s = session () in
  let top = Conquer.Clean.top_answers ~k:2 s Fixtures.q2 in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality top);
  (* ranked by probability: (o1,c1,1.0) then (o2,c1,0.5) *)
  let first = Relation.get top 0 and second = Relation.get top 1 in
  Alcotest.(check bool) "best first" true
    (Value.equal first.(0) (v_s "o1") && Value.equal first.(2) (Value.Float 1.0));
  Alcotest.(check bool) "second best" true
    (Value.equal second.(1) (v_s "c1") && Value.equal second.(2) (Value.Float 0.5))

let test_answers_above () =
  let s = session () in
  let strong = Conquer.Clean.answers_above ~threshold:0.4 s Fixtures.q2 in
  Alcotest.(check int) "two answers above 0.4" 2 (Relation.cardinality strong);
  Fixtures.expect_no_answer strong [ v_s "o2"; v_s "c2" ];
  let all = Conquer.Clean.answers_above ~threshold:0.0 s Fixtures.q2 in
  Alcotest.(check int) "zero threshold keeps all" 3 (Relation.cardinality all)

let test_join_on_syntax_rewritable () =
  (* the q2 join written with JOIN ... ON is still in the class *)
  let s = session () in
  let sql =
    "select o.id, c.id from orders o join customer c on o.cidfk = c.id \
     where c.balance > 10000"
  in
  let result = Conquer.Clean.answers s sql in
  Fixtures.expect_answer result [ v_s "o2"; v_s "c1" ] 0.5

(* ---- consistent answers ---- *)

let test_consistent_answers () =
  let s = session () in
  let result = Conquer.Clean.consistent_answers s Fixtures.q1 in
  (* only c1 is certain *)
  Alcotest.(check int) "one consistent answer" 1 (Relation.cardinality result);
  Alcotest.(check bool) "c1 is the consistent answer" true
    (Value.equal (Relation.get result 0).(0) (v_s "c1"))

let test_consistent_answers_q2 () =
  let s = session () in
  let result = Conquer.Clean.consistent_answers s Fixtures.q2 in
  Alcotest.(check int) "one consistent answer" 1 (Relation.cardinality result);
  let row = Relation.get result 0 in
  Alcotest.(check bool) "(o1,c1) is consistent" true
    (Value.equal row.(0) (v_s "o1") && Value.equal row.(1) (v_s "c1"))

(* ---- independent-tuple semantics ablation ---- *)

let test_independent_differs () =
  (* Under exclusive-duplicate semantics q1 gives c2 probability 0.2;
     under independent tuples both Mary (0.2) and the absence of any
     qualifying tuple coexist differently: P(c2 answer) = P(Mary
     present) = 0.2 as well, but c1's probability differs: exclusive
     gives 1.0, independent gives 1 - (1-0.7)(1-0.3) = 0.79. *)
  let db = Fixtures.figure2_db () in
  let q = Sql.Parser.parse_query Fixtures.q1 in
  let independent = Conquer.Independent.answers db q in
  Fixtures.expect_answer independent [ v_s "c1" ] 0.79;
  let exclusive = Conquer.Candidates.clean_answers db q in
  Fixtures.expect_answer exclusive [ v_s "c1" ] 1.0

let test_independent_world_count () =
  let db = Fixtures.figure2_db () in
  Alcotest.(check (float 1e-9)) "2^7 worlds" 128.0
    (Conquer.Independent.world_count db)

(* ---- boolean-query probability ---- *)

let test_probability_nonempty () =
  let db = Fixtures.figure2_db () in
  let q =
    Sql.Parser.parse_query
      "select id from customer where balance > 25000"
  in
  (* customers above 25K: t5 (c1, 0.3) or t6 (c2, 0.2); nonempty unless
     both clusters pick the low-balance tuple: 1 - 0.7*0.8 = 0.44 *)
  Fixtures.check_float "nonempty probability" 0.44
    (Conquer.Candidates.probability_that_nonempty db q)

(* ---- oracle equals rewriting on another shape ---- *)

let test_three_way_chain () =
  (* chain: shipment -> orders -> customer *)
  let shipment =
    Relation.create
      (Schema.make
         [
           ("sid", Value.TString);
           ("ordfk", Value.TString);
           ("carrier", Value.TString);
           ("prob", Value.TFloat);
         ])
      [
        [| v_s "s1"; v_s "o1"; v_s "UPS"; Value.Float 0.6 |];
        [| v_s "s1"; v_s "o2"; v_s "FedEx"; Value.Float 0.4 |];
        [| v_s "s2"; v_s "o2"; v_s "UPS"; Value.Float 1.0 |];
      ]
  in
  let db =
    Dirty_db.add_table (Fixtures.figure2_db ())
      (Dirty_db.make_table ~name:"shipment" ~id_attr:"sid" ~prob_attr:"prob"
         shipment)
  in
  let s = Conquer.Clean.create db in
  let sql =
    "select s.sid, o.id, c.id from shipment s, orders o, customer c \
     where s.ordfk = o.id and o.cidfk = c.id and c.balance > 10000"
  in
  (match Conquer.Clean.check s sql with
  | Ok graph ->
    Alcotest.(check (list string)) "root is shipment" [ "s" ]
      (Conquer.Join_graph.roots graph)
  | Error vs ->
    Alcotest.failf "expected rewritable: %s"
      (String.concat "; " (List.map Conquer.Rewritable.violation_to_string vs)));
  let rewritten = Conquer.Clean.answers s sql in
  let oracle = Conquer.Candidates.clean_answers db (Sql.Parser.parse_query sql) in
  Alcotest.(check int)
    "same answer count"
    (Relation.cardinality oracle)
    (Relation.cardinality rewritten);
  Relation.iter
    (fun row ->
      let key = [ row.(0); row.(1); row.(2) ] in
      let expected = Option.get (Fixtures.answer_prob oracle key) in
      Fixtures.expect_answer rewritten key expected)
    oracle

(* ---- derived sessions: what an update rebuilds ---- *)

let derive_after batch =
  let s0 = session () in
  let db1 = (Delta.apply (Conquer.Clean.dirty_db s0) batch).Delta.db in
  let count name =
    Option.value ~default:0 (Telemetry.Metrics.counter_value name)
  in
  Telemetry.Control.with_enabled (fun () ->
      let analyzed = count "engine.stats.columns_analyzed"
      and reused = count "engine.stats.columns_reused" in
      let s1 = Conquer.Clean.derive s0 db1 in
      ( s0,
        s1,
        count "engine.stats.columns_analyzed" - analyzed,
        count "engine.stats.columns_reused" - reused ))

let id_index s table =
  Option.get (Engine.Database.index (Conquer.Clean.engine s) ~table ~attr:"id")

let check_reuse what s0 s1 ~tables ~columns =
  let r = Engine.Database.reuse ~prev:(Conquer.Clean.engine s0) (Conquer.Clean.engine s1) in
  Alcotest.(check int) (what ^ ": tables reused") tables r.tables_reused;
  Alcotest.(check int) (what ^ ": columns analyzed") columns r.columns_analyzed

let check_same_answers s1 =
  let fresh = Conquer.Clean.create (Conquer.Clean.dirty_db s1) in
  List.iter
    (fun q ->
      Alcotest.(check string) ("answers equal a fresh session's: " ^ q)
        (Relation.to_string (Conquer.Clean.answers fresh q))
        (Relation.to_string (Conquer.Clean.answers s1 q)))
    [ Fixtures.q1; Fixtures.q2 ]

(* a reassign rewrites one cluster's probabilities: exactly one column
   of one table is analyzed, and the identifier index carries over *)
let test_derive_reassign () =
  let s0, s1, analyzed, reused =
    derive_after
      [ Delta.Reassign { table = "customer"; cluster = v_s "c1"; weights = [| 1.0; 2.0 |] } ]
  in
  Alcotest.(check int) "engine.stats.columns_analyzed grows by 1" 1 analyzed;
  Alcotest.(check int) "engine.stats.columns_reused counts the rest" 10 reused;
  check_reuse "reassign" s0 s1 ~tables:1 ~columns:1;
  Alcotest.(check bool) "customer index carried over" true
    (id_index s0 "customer" == id_index s1 "customer");
  let orders s = Option.get (Engine.Database.stats (Conquer.Clean.engine s) "orders") in
  Alcotest.(check bool) "orders statistics carried over" true
    (List.for_all2 (fun (_, a) (_, b) -> a == b) (orders s0).columns (orders s1).columns);
  check_same_answers s1

(* an insert changes the table's cardinality: nothing of it is reused *)
let test_derive_insert () =
  let row = [| v_s "c3"; v_s "m5"; v_s "Ann"; v_i 40_000; v_f 1.0 |] in
  let s0, s1, analyzed, _ = derive_after [ Delta.Insert { table = "customer"; row } ] in
  Alcotest.(check int) "every customer column analyzed" 5 analyzed;
  check_reuse "insert" s0 s1 ~tables:1 ~columns:5;
  Alcotest.(check bool) "customer index rebuilt" false
    (id_index s0 "customer" == id_index s1 "customer");
  check_same_answers s1

(* a split relabels identifiers: the index is rebuilt over the new ids *)
let test_derive_split () =
  let s0, s1, _, _ =
    derive_after
      [ Delta.Split { table = "customer"; cluster = v_s "c1"; into = v_s "c9"; members = [ 1 ] } ]
  in
  let ix = id_index s1 "customer" in
  Alcotest.(check bool) "customer index rebuilt" false (id_index s0 "customer" == ix);
  Alcotest.(check (list int)) "c1 keeps row 0" [ 0 ] (Engine.Index.lookup ix [| v_s "c1" |]);
  Alcotest.(check (list int)) "c9 holds row 1" [ 1 ] (Engine.Index.lookup ix [| v_s "c9" |]);
  Alcotest.(check bool) "orders index carried over" true
    (id_index s0 "orders" == id_index s1 "orders");
  check_same_answers s1

(* physical identity, not [Value.equal]: a reassign that turns an
   [Int 1] probability into [Float 1.0] leaves the column equal but
   changes its min/max representatives, so it must be re-analyzed *)
let test_derive_equal_is_not_identical () =
  let rel =
    Relation.create
      (Schema.make [ ("id", Value.TString); ("prob", Value.TFloat) ])
      [ [| v_s "a"; v_i 1 |]; [| v_s "b"; v_i 1 |] ]
  in
  let db =
    Dirty_db.add_table Dirty_db.empty
      (Dirty_db.make_table ~name:"t" ~id_attr:"id" ~prob_attr:"prob" rel)
  in
  let s0 = Conquer.Clean.create db in
  let db1 =
    (Delta.apply db [ Delta.Reassign { table = "t"; cluster = v_s "a"; weights = [| 1.0 |] } ])
      .Delta.db
  in
  let s1 = Conquer.Clean.derive s0 db1 in
  check_reuse "int to float" s0 s1 ~tables:0 ~columns:1;
  let prob_max s =
    let stats = Option.get (Engine.Database.stats (Conquer.Clean.engine s) "t") in
    (Option.get (Engine.Stats.column stats "prob")).max
  in
  Alcotest.(check bool) "max representative is fresh" true
    (prob_max s1 = prob_max (Conquer.Clean.create db1))

let () =
  Alcotest.run "conquer"
    [
      ( "candidates",
        [
          Alcotest.test_case "count" `Quick test_candidate_count;
          Alcotest.test_case "probabilities (Example 3)" `Quick
            test_candidate_probabilities;
          Alcotest.test_case "total mass" `Quick test_candidate_mass;
          Alcotest.test_case "selection shape" `Quick test_candidate_selection_shape;
        ] );
      ( "clean answers",
        [
          Alcotest.test_case "q1 oracle (Example 4)" `Quick test_q1_oracle;
          Alcotest.test_case "q1 rewritten (Example 5)" `Quick test_q1_rewritten;
          Alcotest.test_case "q2 rewritten (Example 6)" `Quick test_q2_rewritten;
          Alcotest.test_case "q2 oracle agrees" `Quick test_q2_oracle_agrees;
          Alcotest.test_case "loyalty example (Section 1)" `Quick
            test_loyalty_example;
          Alcotest.test_case "offline cleaning fails (Section 1)" `Quick
            test_loyalty_offline_cleaning_fails;
          Alcotest.test_case "three-way chain" `Quick test_three_way_chain;
          Alcotest.test_case "nonempty probability" `Quick
            test_probability_nonempty;
        ] );
      ( "example 7",
        [
          Alcotest.test_case "q3 not rewritable" `Quick test_q3_not_rewritable;
          Alcotest.test_case "q3 oracle truth" `Quick test_q3_oracle_truth;
          Alcotest.test_case "q3 naive rewriting over-counts" `Quick
            test_q3_unchecked_overcounts;
          Alcotest.test_case "q3 answers raises" `Quick test_q3_answers_raises;
        ] );
      ( "rewritable class",
        [
          Alcotest.test_case "join graph of q2" `Quick test_join_graph_q2;
          Alcotest.test_case "single relation tree" `Quick
            test_single_relation_is_tree;
          Alcotest.test_case "self-join rejected" `Quick test_self_join_rejected;
          Alcotest.test_case "non-identifier join rejected" `Quick
            test_non_identifier_join_rejected;
          Alcotest.test_case "aggregate query rejected" `Quick
            test_aggregate_query_rejected;
          Alcotest.test_case "cyclic join graph rejected" `Quick
            test_cyclic_join_graph_rejected;
          Alcotest.test_case "root identifier not projected" `Quick
            test_root_identifier_not_projected;
          Alcotest.test_case "select star rejected" `Quick
            test_select_star_rejected;
          Alcotest.test_case "order by rejected" `Quick test_order_by_rejected;
          Alcotest.test_case "limit rejected" `Quick test_limit_rejected;
          Alcotest.test_case "cross product rejected" `Quick
            test_cross_product_not_tree;
        ] );
      ( "rewriting",
        [
          Alcotest.test_case "q1 rewrite text" `Quick test_rewrite_text_q1;
          Alcotest.test_case "q2 rewrite round-trips" `Quick
            test_rewrite_text_q2_roundtrip;
          Alcotest.test_case "order by preserved" `Quick
            test_rewrite_preserves_order_by;
        ] );
      ( "subqueries",
        [
          Alcotest.test_case "not rewritable" `Quick test_subquery_not_rewritable;
          Alcotest.test_case "oracle semantics" `Quick test_subquery_oracle;
          Alcotest.test_case "sampler converges" `Quick
            test_subquery_sampler_converges;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "q2 decomposition" `Quick test_provenance_q2;
          Alcotest.test_case "sorted" `Quick test_provenance_sorted;
          Alcotest.test_case "rejects non-rewritable" `Quick
            test_provenance_rejects_unrewritable;
          Alcotest.test_case "pretty printing" `Quick test_provenance_pp;
        ] );
      ( "ranking",
        [
          Alcotest.test_case "top-k" `Quick test_top_answers;
          Alcotest.test_case "threshold" `Quick test_answers_above;
          Alcotest.test_case "join-on syntax" `Quick
            test_join_on_syntax_rewritable;
        ] );
      ( "derived sessions",
        [
          Alcotest.test_case "reassign analyzes one column" `Quick
            test_derive_reassign;
          Alcotest.test_case "insert re-analyzes its table" `Quick
            test_derive_insert;
          Alcotest.test_case "split rebuilds the identifier index" `Quick
            test_derive_split;
          Alcotest.test_case "equal but not identical cells re-analyze" `Quick
            test_derive_equal_is_not_identical;
        ] );
      ( "consistent answers",
        [
          Alcotest.test_case "q1" `Quick test_consistent_answers;
          Alcotest.test_case "q2" `Quick test_consistent_answers_q2;
        ] );
      ( "independent semantics",
        [
          Alcotest.test_case "differs from exclusive" `Quick
            test_independent_differs;
          Alcotest.test_case "world count" `Quick test_independent_world_count;
        ] );
    ]
