(* Parallel execution tests: the Engine.Parallel pool itself, and the
   serial-equivalence guarantee of the partition-parallel operators —
   jobs=4 must produce results bit-identical to jobs=1, including
   aggregate group order, float keys (-0.0 vs 0.0, NaN), empty and
   all-null inputs, and budgeted Truncate prefixes.

   [Parallel.min_rows_per_chunk] is lowered so the small relations
   used here actually take the parallel paths. *)

open Dirty

let () = Engine.Parallel.min_rows_per_chunk := 2

let v_i i = Value.Int i
let v_f f = Value.Float f
let v_s s = Value.String s

let config ~jobs = { Engine.Planner.default_config with jobs }

(* exact relational equality: same schema names, same rows in the same
   order, cell-compared with Value.compare *)
let check_same_relation msg expected actual =
  Alcotest.(check (list string))
    (msg ^ ": schema")
    (Schema.names (Relation.schema expected))
    (Schema.names (Relation.schema actual));
  Alcotest.(check int)
    (msg ^ ": cardinality")
    (Relation.cardinality expected) (Relation.cardinality actual);
  Relation.rows expected
  |> Array.iteri (fun i row ->
         let row' = Relation.get actual i in
         Alcotest.(check int) (Printf.sprintf "%s: row %d arity" msg i)
           (Array.length row) (Array.length row');
         Array.iteri
           (fun j v ->
             if Value.compare v row'.(j) <> 0 then
               Alcotest.failf "%s: row %d col %d: %s <> %s" msg i j
                 (Value.to_string v)
                 (Value.to_string row'.(j)))
           row)

(* stricter: floats must agree bit for bit (Value.compare treats -0.0
   and 0.0 as equal, which would mask a sign flip) *)
let check_bitwise_relation msg expected actual =
  check_same_relation msg expected actual;
  Relation.rows expected
  |> Array.iteri (fun i row ->
         let row' = Relation.get actual i in
         Array.iteri
           (fun j v ->
             match (v, row'.(j)) with
             | Value.Float a, Value.Float b
               when Int64.bits_of_float a <> Int64.bits_of_float b ->
               Alcotest.failf "%s: row %d col %d: %h <> %h (bitwise)" msg i j a
                 b
             | _ -> ())
           row)

let bitwise_jobs1_jobs4 engine sql =
  let serial = Engine.Database.query ~config:(config ~jobs:1) engine sql in
  let parallel = Engine.Database.query ~config:(config ~jobs:4) engine sql in
  check_bitwise_relation (sql ^ ": jobs=4 = jobs=1") serial parallel;
  serial

(* ---- the pool ---- *)

let test_pool_init () =
  let a = Engine.Parallel.init ~jobs:4 100 (fun i -> i * i) in
  Alcotest.(check (array int)) "init" (Array.init 100 (fun i -> i * i)) a;
  Alcotest.(check (array int)) "empty" [||] (Engine.Parallel.init ~jobs:4 0 (fun i -> i))

let test_pool_nested () =
  (* inner regions must make progress even with every worker busy *)
  let sums = Engine.Parallel.init ~jobs:4 8 (fun i ->
      let inner = Engine.Parallel.init ~jobs:4 16 (fun j -> (i * 16) + j) in
      Array.fold_left ( + ) 0 inner)
  in
  let expect = Array.init 8 (fun i -> (16 * ((i * 16) + (i * 16) + 15)) / 2) in
  Alcotest.(check (array int)) "nested sums" expect sums

exception Task_failed of int

let test_pool_exception () =
  (* several tasks fail; the lowest index must win deterministically *)
  match
    Engine.Parallel.run ~jobs:4 32 (fun i ->
        if i mod 7 = 3 then raise (Task_failed i))
  with
  | () -> Alcotest.fail "expected a task failure"
  | exception Task_failed i -> Alcotest.(check int) "lowest failing task" 3 i

(* ---- serial equivalence of the relational operators ---- *)

let join_db () =
  let engine = Engine.Database.create () in
  let left =
    Relation.create
      (Schema.make [ ("k", Value.TInt); ("a", Value.TString) ])
      (List.init 60 (fun i ->
           let key = if i mod 10 = 7 then Value.Null else v_i (i mod 8) in
           [| key; v_s (Printf.sprintf "l%d" i) |]))
  in
  let right =
    Relation.create
      (Schema.make [ ("k", Value.TInt); ("b", Value.TString) ])
      (List.init 50 (fun i ->
           let key = if i mod 9 = 4 then Value.Null else v_i (i mod 6) in
           [| key; v_s (Printf.sprintf "r%d" i) |]))
  in
  Engine.Database.add_relation engine ~name:"l" left;
  Engine.Database.add_relation engine ~name:"r" right;
  engine

let test_hash_join_null_keys () =
  let engine = join_db () in
  let sql = "select l.a, r.b from l, r where l.k = r.k" in
  let serial = Engine.Database.query ~config:(config ~jobs:1) engine sql in
  let parallel = Engine.Database.query ~config:(config ~jobs:4) engine sql in
  (* NULL join keys match nothing, on either side, under any jobs *)
  let expected =
    let matches = ref 0 in
    List.iter
      (fun i ->
        if i mod 10 <> 7 then
          List.iter
            (fun j ->
              if j mod 9 <> 4 && i mod 8 = j mod 6 then incr matches)
            (List.init 50 Fun.id))
      (List.init 60 Fun.id);
    !matches
  in
  Alcotest.(check int) "null keys skipped" expected (Relation.cardinality serial);
  check_same_relation "jobs=4 equals jobs=1" serial parallel

let test_filter_project_parallel () =
  let engine = join_db () in
  let sql = "select l.a from l where l.k > 2" in
  let serial = Engine.Database.query ~config:(config ~jobs:1) engine sql in
  let parallel = Engine.Database.query ~config:(config ~jobs:4) engine sql in
  check_same_relation "filter+project" serial parallel

let test_truncate_prefix () =
  let engine = join_db () in
  let q =
    Sql.Parser.parse_query "select l.a, r.b from l, r where l.k = r.k"
  in
  let full = Engine.Database.query_ast ~config:(config ~jobs:1) engine q in
  let check_at jobs =
    let cfg = { (config ~jobs) with max_rows = Some 200 } in
    let rel, { Engine.Database.truncated; cancelled = _ } =
      Engine.Database.query_ast_within ~config:cfg engine q
    in
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d truncated" jobs)
      true truncated;
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d partial" jobs)
      true
      (Relation.cardinality rel < Relation.cardinality full);
    (* the truncated answer is a prefix of the full answer *)
    let prefix =
      Relation.of_array (Relation.schema full)
        (Array.sub (Relation.rows full) 0 (Relation.cardinality rel))
    in
    check_same_relation (Printf.sprintf "jobs=%d prefix" jobs) prefix rel;
    rel
  in
  let serial = check_at 1 in
  let parallel = check_at 4 in
  check_same_relation "truncated prefixes agree" serial parallel

(* ---- float keys: -0.0 vs 0.0 and NaN ----

   [Value.compare] says -0.0 = 0.0 and NaN = NaN, so grouping and
   joining must place such keys together at any jobs value; a hash
   that distinguished the bit patterns would split them only on the
   partitioned paths. *)

let float_key_db () =
  let engine = Engine.Database.create () in
  let keys =
    [ -0.0; 0.0; Float.nan; 1.5; Float.nan; -0.0; 0.0; 1.5; 2.5; -0.0 ]
  in
  let rel =
    Relation.create
      (Schema.make [ ("k", Value.TFloat); ("v", Value.TInt) ])
      (List.mapi (fun i k -> [| v_f k; v_i i |]) keys)
  in
  Engine.Database.add_relation engine ~name:"t" rel;
  engine

let test_float_group_keys () =
  let serial =
    bitwise_jobs1_jobs4 (float_key_db ())
      "select k, count(*), sum(v) from t group by k"
  in
  (* distinct keys under Value.compare: {-0.0, 0.0}, {NaN}, 1.5, 2.5 *)
  Alcotest.(check int) "four groups" 4 (Relation.cardinality serial)

let test_float_join_keys () =
  let engine = Engine.Database.create () in
  let rel name keys =
    Relation.create
      (Schema.make [ ("k", Value.TFloat); (name, Value.TInt) ])
      (List.mapi (fun i k -> [| v_f k; v_i i |]) keys)
  in
  Engine.Database.add_relation engine ~name:"l"
    (rel "a" [ -0.0; 0.0; Float.nan; 1.0; 2.0 ]);
  Engine.Database.add_relation engine ~name:"r"
    (rel "b" [ 0.0; Float.nan; 2.0; 3.0 ]);
  let serial =
    bitwise_jobs1_jobs4 engine "select l.a, r.b from l, r where l.k = r.k"
  in
  (* -0.0 and 0.0 both meet r's 0.0; NaN meets NaN; 2.0 meets 2.0 *)
  Alcotest.(check int) "matches" 4 (Relation.cardinality serial)

(* ---- fixed edge shapes ---- *)

let test_empty_and_all_null () =
  let engine = Engine.Database.create () in
  Engine.Database.add_relation engine ~name:"empty"
    (Relation.create
       (Schema.make [ ("k", Value.TInt); ("v", Value.TInt) ])
       []);
  Engine.Database.add_relation engine ~name:"nulls"
    (Relation.create
       (Schema.make [ ("k", Value.TInt); ("v", Value.TInt) ])
       (List.init 20 (fun i -> [| v_i (i mod 3); Value.Null |])));
  List.iter
    (fun sql -> ignore (bitwise_jobs1_jobs4 engine sql))
    [
      "select v from empty where v > 0";
      "select k, v from empty";
      "select k, count(*), sum(v) from empty group by k";
      "select v from nulls where v > 0";
      "select k, v + 1 from nulls";
      "select k, count(v), sum(v), min(v), max(v) from nulls group by k";
      "select a.v from nulls a, nulls b where a.v = b.v";
    ]

let test_truncate_prefix_filter_project () =
  let engine = float_key_db () in
  let q = Sql.Parser.parse_query "select k, v * 2 from t where v >= 0" in
  let full = Engine.Database.query_ast ~config:(config ~jobs:1) engine q in
  let check_at jobs =
    let cfg = { (config ~jobs) with max_rows = Some 13 } in
    let rel, { Engine.Database.truncated; cancelled = _ } =
      Engine.Database.query_ast_within ~config:cfg engine q
    in
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d truncated" jobs)
      true truncated;
    let prefix =
      Relation.of_array (Relation.schema full)
        (Array.sub (Relation.rows full) 0 (Relation.cardinality rel))
    in
    check_same_relation (Printf.sprintf "jobs=%d prefix" jobs) prefix rel;
    rel
  in
  let serial = check_at 1 in
  let parallel = check_at 4 in
  check_bitwise_relation "truncated prefixes agree" serial parallel

(* ---- randomized serial-equivalence (QCheck) ---- *)

let ( let* ) gen f = QCheck.Gen.( >>= ) gen f

let value_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map v_i (QCheck.Gen.int_range (-50) 50);
      QCheck.Gen.map v_f (QCheck.Gen.float_range (-100.0) 100.0);
      QCheck.Gen.return Value.Null;
    ]

let grouped_relation_gen =
  let* n = QCheck.Gen.int_range 20 200 in
  let* rows =
    QCheck.Gen.list_size (QCheck.Gen.return n)
      (let* g = QCheck.Gen.int_range 0 12 in
       let* v = value_gen in
       QCheck.Gen.return [| v_i g; v |])
  in
  QCheck.Gen.return
    (Relation.create (Schema.make [ ("g", Value.TInt); ("v", Value.TInt) ]) rows)

(* floats lean on the corner cases: signed zeros, NaN, infinity *)
let corner_float_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.float_range (-100.0) 100.0;
      QCheck.Gen.oneofl [ -0.0; 0.0; Float.nan; Float.infinity ];
    ]

(* numeric-or-null, so arithmetic and SUM never raise; n ranges down to
   0 for the empty-relation edge, and a relation is all-null half of
   the time *)
let corner_relation_gen =
  let* n = QCheck.Gen.int_range 0 120 in
  let* all_null = QCheck.Gen.bool in
  let* rows =
    QCheck.Gen.list_size (QCheck.Gen.return n)
      (let* g = QCheck.Gen.int_range 0 4 in
       let* v =
         if all_null then QCheck.Gen.return Value.Null
         else
           QCheck.Gen.oneof
             [
               QCheck.Gen.map v_i (QCheck.Gen.int_range (-50) 50);
               QCheck.Gen.map v_f corner_float_gen;
               QCheck.Gen.return Value.Null;
             ]
       in
       QCheck.Gen.return [| v_i g; v |])
  in
  QCheck.Gen.return
    (Relation.create (Schema.make [ ("g", Value.TInt); ("v", Value.TInt) ]) rows)

let with_relation rel f =
  let engine = Engine.Database.create () in
  Engine.Database.add_relation engine ~name:"t" rel;
  f engine

let prop_corner_floats_bitwise =
  QCheck.Test.make ~count:60
    ~name:"filter/project/aggregate over float corner cases bitwise at jobs=1 and 4"
    (QCheck.make corner_relation_gen)
    (fun rel ->
      with_relation rel (fun engine ->
          List.iter
            (fun sql -> ignore (bitwise_jobs1_jobs4 engine sql))
            [
              "select v from t where v > 1";
              "select g, v + 1, v * 2 from t";
              "select g, count(*), count(v), sum(v), min(v), max(v) from t \
               group by g";
              "select g, count(v) from t where g > 1 group by g \
               having count(*) > 1";
            ];
          true))

(* budgeted Truncate prefixes are deterministic at any jobs value *)
let prop_truncate_prefix =
  QCheck.Test.make ~count:40
    ~name:"Truncate prefixes agree between jobs=1 and jobs=4"
    (QCheck.make corner_relation_gen)
    (fun rel ->
      with_relation rel (fun engine ->
          let q = Sql.Parser.parse_query "select g, v from t where g >= 0" in
          let at jobs =
            let cfg = { (config ~jobs) with max_rows = Some 17 } in
            fst (Engine.Database.query_ast_within ~config:cfg engine q)
          in
          check_bitwise_relation "prefixes" (at 1) (at 4);
          true))

let same_answers engine sql =
  let serial = Engine.Database.query ~config:(config ~jobs:1) engine sql in
  let parallel = Engine.Database.query ~config:(config ~jobs:4) engine sql in
  check_same_relation sql serial parallel

let prop_aggregate_group_order =
  QCheck.Test.make ~count:60
    ~name:"aggregate groups identical between jobs=1 and jobs=4"
    (QCheck.make grouped_relation_gen)
    (fun rel ->
      let engine = Engine.Database.create () in
      Engine.Database.add_relation engine ~name:"t" rel;
      (* no ORDER BY: first-occurrence group order must match too *)
      same_answers engine
        "select g, count(*), sum(v), avg(v), min(v), max(v) from t group by g";
      same_answers engine
        "select g, count(v) from t where g > 3 group by g having count(*) > 1";
      true)

let join_pair_gen =
  let* nl = QCheck.Gen.int_range 20 150 in
  let* nr = QCheck.Gen.int_range 20 150 in
  let row_gen tag =
    let* k = QCheck.Gen.oneof
        [ QCheck.Gen.map v_i (QCheck.Gen.int_range 0 15);
          QCheck.Gen.return Value.Null ]
    in
    let* v = QCheck.Gen.int_range 0 1000 in
    QCheck.Gen.return [| k; v_s (Printf.sprintf "%s%d" tag v) |]
  in
  let* lrows = QCheck.Gen.list_size (QCheck.Gen.return nl) (row_gen "l") in
  let* rrows = QCheck.Gen.list_size (QCheck.Gen.return nr) (row_gen "r") in
  let schema tag = Schema.make [ ("k", Value.TInt); (tag, Value.TString) ] in
  QCheck.Gen.return
    (Relation.create (schema "a") lrows, Relation.create (schema "b") rrows)

let prop_join_rows =
  QCheck.Test.make ~count:60
    ~name:"hash join identical between jobs=1 and jobs=4"
    (QCheck.make join_pair_gen)
    (fun (left, right) ->
      let engine = Engine.Database.create () in
      Engine.Database.add_relation engine ~name:"l" left;
      Engine.Database.add_relation engine ~name:"r" right;
      same_answers engine "select l.a, r.b from l, r where l.k = r.k";
      true)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "init" `Quick test_pool_init;
          Alcotest.test_case "nested regions" `Quick test_pool_nested;
          Alcotest.test_case "deterministic failure" `Quick test_pool_exception;
        ] );
      ( "operators",
        [
          Alcotest.test_case "hash join skips null keys" `Quick
            test_hash_join_null_keys;
          Alcotest.test_case "filter and project" `Quick
            test_filter_project_parallel;
          Alcotest.test_case "truncate prefix" `Quick test_truncate_prefix;
        ] );
      ( "float keys",
        [
          Alcotest.test_case "group keys -0.0/0.0/NaN" `Quick
            test_float_group_keys;
          Alcotest.test_case "join keys -0.0/0.0/NaN" `Quick
            test_float_join_keys;
        ] );
      ( "executor",
        [
          Alcotest.test_case "empty and all-null inputs" `Quick
            test_empty_and_all_null;
          Alcotest.test_case "truncate prefix" `Quick
            test_truncate_prefix_filter_project;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_aggregate_group_order;
            prop_join_rows;
            prop_corner_floats_bitwise;
            prop_truncate_prefix;
          ] );
    ]
