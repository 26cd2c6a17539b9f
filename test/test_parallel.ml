(* Parallel execution tests: the Engine.Parallel pool itself, and the
   serial-equivalence guarantee of the partition-parallel operators —
   jobs=4 must produce results bit-identical to jobs=1, including
   aggregate group order, float keys (-0.0 vs 0.0, NaN), thousands of
   groups over off-grid floats, empty and all-null inputs, and
   budgeted Truncate prefixes.

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

(* ---- many groups (ROADMAP 1b regression) ---- *)

let test_many_group_aggregate () =
  (* 12k groups of off-grid floats: group-hash-partitioned aggregation
     feeds each group's accumulator in row order, so jobs=1 and jobs=4
     agree bit for bit *)
  let n_groups = 12_000 in
  let rows =
    List.concat_map
      (fun g ->
        [
          [| v_i g; v_f (0.1 +. (float_of_int g *. 0.001)) |];
          [| v_i g; v_f (0.3 +. (float_of_int (g mod 97) *. 0.007)) |];
        ])
      (List.init n_groups Fun.id)
  in
  let engine = Engine.Database.create () in
  Engine.Database.add_relation engine ~name:"t"
    (Relation.create
       (Schema.make [ ("g", Value.TInt); ("v", Value.TFloat) ])
       rows);
  let serial =
    bitwise_jobs1_jobs4 engine
      "select g, count(*), sum(v), min(v), max(v) from t group by g"
  in
  Alcotest.(check int) "group count" n_groups (Relation.cardinality serial)

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

(* ---- grouping corner cases against a list-based reference ----

   Each relation has enough rows for the partitioned path at jobs=4
   (the chunk threshold is lowered above); both jobs counts are
   checked against [reference_groups], a plain association-list
   grouping under [Value.equal] written here, independent of the
   executor's hash table.  Floats are compared bit for bit. *)

(* [(k, v)] rows grouped by k in first-occurrence order; each group's
   row is k, COUNT star, then COUNT, SUM, AVG, MIN and MAX of v *)
let reference_groups rows =
  let groups =
    List.fold_left
      (fun acc (k, v) ->
        if List.exists (fun (k', _) -> Value.equal k k') acc then
          List.map
            (fun (k', vs) -> if Value.equal k k' then (k', v :: vs) else (k', vs))
            acc
        else acc @ [ (k, [ v ]) ])
      [] rows
  in
  let to_float v = Option.get (Value.to_float v) in
  List.map
    (fun (k, vs) ->
      let vs = List.rev vs in
      let present = List.filter (fun v -> not (Value.is_null v)) vs in
      (* SUM stays an exact int until a non-int value arrives; then the
         int prefix converts once and floats add in row order *)
      let sum =
        List.fold_left
          (fun acc v ->
            match acc, v with
            | Value.Null, Value.Int i -> Value.Int i
            | Value.Int s, Value.Int i -> Value.Int (s + i)
            | Value.Float s, Value.Int i -> Value.Float (s +. float_of_int i)
            | Value.Null, _ -> Value.Float (0.0 +. to_float v)
            | Value.Int s, _ -> Value.Float (float_of_int s +. to_float v)
            | _, _ -> Value.Float (to_float acc +. to_float v))
          Value.Null present
      in
      let avg =
        match present with
        | [] -> Value.Null
        | _ ->
          Value.Float
            (List.fold_left (fun t v -> t +. to_float v) 0.0 present
            /. float_of_int (List.length present))
      in
      let best better =
        List.fold_left
          (fun acc v -> if Value.is_null acc || better (Value.compare v acc) then v else acc)
          Value.Null present
      in
      [|
        k;
        v_i (List.length vs);
        v_i (List.length present);
        sum;
        avg;
        best (fun c -> c < 0);
        best (fun c -> c > 0);
      |])
    groups

(* same constructor, same bits for floats, [Value.equal] otherwise *)
let same_cell a b =
  match a, b with
  | Value.Float x, Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Value.Int _, Value.Float _ | Value.Float _, Value.Int _ -> false
  | _ -> Value.equal a b

let check_rows msg expected rel =
  let actual = Array.to_list (Relation.rows rel) in
  Alcotest.(check int) (msg ^ ": groups") (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      Array.iteri
        (fun j v ->
          if not (same_cell v a.(j)) then
            Alcotest.failf "%s: group %d col %d: expected %s (%h), got %s" msg i j
              (Value.to_string v)
              (match v with Value.Float f -> f | _ -> 0.0)
              (Value.to_string a.(j)))
        e)
    (List.combine expected actual)

let grouping_sql =
  "select k, count(*), count(v), sum(v), avg(v), min(v), max(v) from t group by k"

(* runs [grouping_sql] (and a HAVING variant) over [(k, v)] rows at
   jobs 1 and 4 and checks both against the reference *)
let check_grouping msg ~kty ~vty rows =
  let engine = Engine.Database.create () in
  Engine.Database.add_relation engine ~name:"t"
    (Relation.create
       (Schema.make [ ("k", kty); ("v", vty) ])
       (List.map (fun (k, v) -> [| k; v |]) rows));
  let expected = reference_groups rows in
  let having =
    List.filter
      (fun g -> match g.(1) with Value.Int n -> n > 1 | _ -> false)
      expected
  in
  List.iter
    (fun jobs ->
      let run sql = Engine.Database.query ~config:(config ~jobs) engine sql in
      check_rows (Printf.sprintf "%s, jobs=%d" msg jobs) expected (run grouping_sql);
      check_rows
        (Printf.sprintf "%s, having, jobs=%d" msg jobs)
        having
        (run (grouping_sql ^ " having count(*) > 1")))
    [ 1; 4 ]

let two_53 = 1 lsl 53

let test_group_numeric_keys () =
  (* Int 2 and Float 2.0 are one group; 2^53 and 2^53 + 1 are two,
     though both round to the same float; Float 2^53 joins Int 2^53 *)
  let keys =
    [
      v_i 2; v_f 2.0; v_i two_53; v_i (two_53 + 1); v_f (float_of_int two_53);
      v_i 2; v_i (two_53 + 1); v_f 2.5; v_i max_int; v_i min_int; v_f 2.0;
    ]
  in
  check_grouping "numeric keys" ~kty:Value.TFloat ~vty:Value.TInt
    (List.mapi (fun i k -> (k, v_i i)) keys)

let test_group_float_corner_keys () =
  (* -0.0/0.0 meet, every NaN payload meets, NULL is a key of its own *)
  let nan2 = Int64.float_of_bits 0x7FF0000000000001L in
  let nan3 = Int64.float_of_bits 0xFFF8000000000000L in
  let keys =
    [
      v_f (-0.0); Value.Null; v_f Float.nan; v_f 0.0; v_f nan2; v_i 0;
      Value.Null; v_f nan3; v_f (-0.0); v_f Float.infinity; v_f Float.neg_infinity;
    ]
  in
  check_grouping "float corner keys" ~kty:Value.TFloat ~vty:Value.TFloat
    (List.mapi (fun i k -> (k, v_f (0.1 *. float_of_int i))) keys)

let test_group_sum_switch () =
  (* group 1 sums ints, then turns float mid-group; group 2 is all
     NULL (SUM, AVG, MIN, MAX NULL; COUNT(v) 0); group 3 starts float *)
  let rows =
    [
      (v_i 1, v_i 1); (v_i 2, Value.Null); (v_i 1, v_i max_int); (v_i 3, v_f 0.1);
      (v_i 1, v_f 0.5); (v_i 2, Value.Null); (v_i 1, v_i 3); (v_i 3, v_i 7);
      (v_i 1, v_f (-0.0)); (v_i 2, Value.Null); (v_i 3, v_f 0.2); (v_i 1, Value.Null);
    ]
  in
  check_grouping "sum switch" ~kty:Value.TInt ~vty:Value.TInt rows

let test_group_many_dense () =
  (* enough groups to grow the table several times, with off-grid
     float sums *)
  let rows =
    List.init 3000 (fun i ->
        (v_i ((i * 7919) mod 701), v_f (0.1 +. (float_of_int (i mod 13) *. 0.37))))
  in
  check_grouping "dense" ~kty:Value.TInt ~vty:Value.TFloat rows

let test_ungrouped_empty () =
  (* an ungrouped aggregate over an empty input still answers one row *)
  let engine = Engine.Database.create () in
  Engine.Database.add_relation engine ~name:"t"
    (Relation.create (Schema.make [ ("k", Value.TInt); ("v", Value.TInt) ]) []);
  List.iter
    (fun jobs ->
      check_rows
        (Printf.sprintf "ungrouped empty, jobs=%d" jobs)
        [ [| v_i 0; v_i 0; Value.Null; Value.Null; Value.Null; Value.Null |] ]
        (Engine.Database.query ~config:(config ~jobs) engine
           "select count(*), count(v), sum(v), avg(v), min(v), max(v) from t"))
    [ 1; 4 ]

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
          Alcotest.test_case
            "12k groups bitwise at jobs=1 and jobs=4 (ROADMAP 1b)" `Quick
            test_many_group_aggregate;
        ] );
      ( "float keys",
        [
          Alcotest.test_case "group keys -0.0/0.0/NaN" `Quick
            test_float_group_keys;
          Alcotest.test_case "join keys -0.0/0.0/NaN" `Quick
            test_float_join_keys;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "Int 2 = Float 2.0, 2^53 <> 2^53+1" `Quick
            test_group_numeric_keys;
          Alcotest.test_case "-0.0/0.0, NaN payloads, NULL keys" `Quick
            test_group_float_corner_keys;
          Alcotest.test_case "SUM int to float, all-NULL SUM" `Quick
            test_group_sum_switch;
          Alcotest.test_case "table growth" `Quick test_group_many_dense;
          Alcotest.test_case "ungrouped empty input" `Quick test_ungrouped_empty;
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
