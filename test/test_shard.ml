(* Cluster-sharded execution (Engine.Shard, ROADMAP item 5).

   Covers every layer of the scatter/gather boundary in isolation —
   cluster-whole partitioning, the overlay catalog trick, the
   serializable fragment and partial codecs, plan_query's shardable
   class, and the gather merge — plus end-to-end agreement between
   sharded and unsharded execution at several shard counts.

   The merge properties pin the two determinism claims DESIGN makes:
   merged partial SUM/COUNT groups preserve first-occurrence order
   and are exact for int aggregates at any shard count; float sums on
   the sixteenths grid (every probability dbgen emits is a multiple
   of 1/16, a dyadic rational) are bit-equal to a single-shard run
   under any association.

   The last section is the ROADMAP item 1b regression: parallel
   aggregation is group-hash-partitioned, so each group's accumulator
   sees its rows in row order whatever the jobs count — jobs=1 and
   jobs=4 must agree bit for bit even on off-grid floats and thousands
   of groups. *)

open Dirty

let v_i i = Value.Int i
let v_f f = Value.Float f

(* ---- fixtures: a small two-table dirty database ---- *)

(* t0: 12 clusters, two alternatives each (0.5/0.5) — 24 rows.
   t1: 6 singleton clusters referencing t0 ids through fk — 6 rows.
   t0 is strictly larger, so joins partition on t0. *)
let dirty_db () =
  let t0 =
    Dirty_db.make_table ~name:"t0" ~id_attr:"id" ~prob_attr:"prob"
      (Relation.create
         (Schema.make
            [ ("id", Value.TInt); ("v", Value.TInt); ("prob", Value.TFloat) ])
         (List.concat_map
            (fun i ->
              [
                [| v_i i; v_i (i mod 5); v_f 0.5 |];
                [| v_i i; v_i ((i + 1) mod 5); v_f 0.5 |];
              ])
            (List.init 12 Fun.id)))
  in
  let t1 =
    Dirty_db.make_table ~name:"t1" ~id_attr:"id" ~prob_attr:"prob"
      (Relation.create
         (Schema.make
            [
              ("id", Value.TInt);
              ("fk", Value.TInt);
              ("w", Value.TInt);
              ("prob", Value.TFloat);
            ])
         (List.init 6 (fun j ->
              [| v_i (100 + j); v_i (j * 2); v_i ((j * 7) - 3); v_f 1.0 |])))
  in
  Dirty_db.add_table (Dirty_db.add_table Dirty_db.empty t0) t1

let base_of dirty =
  let db = Engine.Database.create () in
  List.iter
    (fun (t : Dirty_db.table) ->
      Engine.Database.add_relation db ~name:t.name t.relation;
      Engine.Database.create_index db ~table:t.name ~attr:t.id_attr;
      Engine.Database.analyze db t.name)
    (Dirty_db.tables dirty);
  db

let session ?(shards = 2) () =
  let dirty = dirty_db () in
  Engine.Shard.create ~base:(base_of dirty) ~shards dirty

let parse = Sql.Parser.parse_query

(* exact cell equality, floats bit for bit *)
let check_cell msg expected actual =
  match (expected, actual) with
  | Value.Float a, Value.Float b ->
    (* bit-exact, except NaN payloads (the text codec canonicalizes
       "nan", and Value.compare treats all NaNs alike anyway) *)
    if
      Int64.bits_of_float a <> Int64.bits_of_float b
      && not (Float.is_nan a && Float.is_nan b)
    then Alcotest.failf "%s: float %h <> %h (bitwise)" msg a b
  | _ ->
    if not (Value.equal expected actual) then
      Alcotest.failf "%s: %s <> %s" msg
        (Value.to_string expected) (Value.to_string actual)

let check_rows msg expected actual =
  Alcotest.(check int) (msg ^ ": cardinality") (Array.length expected)
    (Array.length actual);
  Array.iteri
    (fun i row ->
      Alcotest.(check int)
        (Printf.sprintf "%s: row %d arity" msg i)
        (Array.length row)
        (Array.length actual.(i));
      Array.iteri
        (fun j v ->
          check_cell (Printf.sprintf "%s: row %d col %d" msg i j) v
            actual.(i).(j))
        row)
    expected

let check_same_relation msg expected actual =
  Alcotest.(check (list string))
    (msg ^ ": schema")
    (Schema.names (Relation.schema expected))
    (Schema.names (Relation.schema actual));
  check_rows msg (Relation.rows expected) (Relation.rows actual)

(* bag equality: same schema, same rows up to order *)
let check_same_bag msg expected actual =
  let sort rel =
    let rows = Array.copy (Relation.rows rel) in
    Array.sort
      (fun a b ->
        let n = compare (Array.length a) (Array.length b) in
        if n <> 0 then n
        else
          let rec go i =
            if i = Array.length a then 0
            else
              let c = Value.compare a.(i) b.(i) in
              if c <> 0 then c
              else
                (* order bit patterns too so NaN/-0.0 rows sort stably *)
                let c =
                  match (a.(i), b.(i)) with
                  | Value.Float x, Value.Float y ->
                    Int64.compare (Int64.bits_of_float x)
                      (Int64.bits_of_float y)
                  | _ -> 0
                in
                if c <> 0 then c else go (i + 1)
          in
          go 0)
      rows;
    rows
  in
  Alcotest.(check (list string))
    (msg ^ ": schema")
    (Schema.names (Relation.schema expected))
    (Schema.names (Relation.schema actual));
  check_rows msg (sort expected) (sort actual)

(* ---- cluster-hash partitioning ---- *)

let test_partition_clusters_whole () =
  let dirty = dirty_db () in
  List.iter
    (fun shards ->
      let frags = Dirty_db.partition dirty ~shards in
      Alcotest.(check int) "fragment count" shards (Array.length frags);
      List.iter
        (fun name ->
          let whole = (Dirty_db.find_table dirty name).relation in
          let total = ref 0 in
          Array.iteri
            (fun s frag ->
              match Dirty_db.find_table_opt frag name with
              | None -> ()
              | Some t ->
                total := !total + Relation.cardinality t.relation;
                Relation.rows t.relation
                |> Array.iter (fun row ->
                       let id = row.(0) in
                       Alcotest.(check int)
                         (Printf.sprintf "%s id %s on its shard" name
                            (Value.to_string id))
                         s
                         (Dirty_db.shard_of_value ~shards id)))
            frags;
          Alcotest.(check int)
            (Printf.sprintf "%s rows conserved at %d shards" name shards)
            (Relation.cardinality whole) !total;
          (* row order is preserved within each fragment: filtering the
             whole table by shard must reproduce the fragment exactly *)
          Array.iteri
            (fun s frag ->
              match Dirty_db.find_table_opt frag name with
              | None -> ()
              | Some t ->
                let expected =
                  Relation.rows whole |> Array.to_list
                  |> List.filter (fun row ->
                         Dirty_db.shard_of_value ~shards row.(0) = s)
                  |> Array.of_list
                in
                check_rows
                  (Printf.sprintf "%s shard %d order" name s)
                  expected
                  (Relation.rows t.relation))
            frags)
        (Dirty_db.table_names dirty))
    [ 1; 2; 4; 8 ]

let test_create_rejects_bad_shards () =
  let dirty = dirty_db () in
  match Engine.Shard.create ~base:(base_of dirty) ~shards:0 dirty with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards = 0 should be rejected"

(* ---- Database.overlay ---- *)

let test_overlay_swaps_one_table () =
  let base = Engine.Database.create () in
  let mk v =
    Relation.create (Schema.make [ ("x", Value.TInt) ]) [ [| v_i v |] ]
  in
  Engine.Database.add_relation base ~name:"a" (mk 1);
  Engine.Database.add_relation base ~name:"b" (mk 2);
  let other = Engine.Database.create () in
  Engine.Database.add_relation other ~name:"a" (mk 42);
  let view = Engine.Database.overlay base ~name:"a" ~from:other in
  let one sql db = (Engine.Database.query db sql |> Relation.get) 0 in
  check_cell "overlaid a" (v_i 42) (one "select a.x from a" view).(0);
  check_cell "shared b" (v_i 2) (one "select b.x from b" view).(0);
  check_cell "base a untouched" (v_i 1) (one "select a.x from a" base).(0)

(* ---- the serializable boundary ---- *)

let test_fragment_codec () =
  let s = session () in
  let q =
    parse
      "select t0.v, count(*), sum(t1.w) from t0, t1 where t1.fk = t0.id \
       group by t0.v having count(*) > 1 order by t0.v"
  in
  match Engine.Shard.plan_query s q with
  | None -> Alcotest.fail "aggregate join should be shardable"
  | Some plan ->
    let frag = Engine.Shard.plan_fragment plan in
    Alcotest.(check string) "partition table" "t0"
      (Engine.Shard.partition_table plan);
    Alcotest.(check string) "frag table" "t0" frag.Engine.Shard.frag_table;
    let back =
      Engine.Shard.fragment_of_string (Engine.Shard.fragment_to_string frag)
    in
    Alcotest.(check string) "table round-trips" frag.Engine.Shard.frag_table
      back.Engine.Shard.frag_table;
    Alcotest.(check string) "query round-trips"
      (Sql.Pretty.query_to_string frag.Engine.Shard.frag_query)
      (Sql.Pretty.query_to_string back.Engine.Shard.frag_query)

let test_partial_codec () =
  let rel =
    Relation.create
      (Schema.make
         [ ("__g0", Value.TString); ("__a0", Value.TFloat); ("__a1", Value.TInt) ])
      [
        [| Value.String "plain"; v_f 0.5; v_i 3 |];
        [| Value.String "comma, quote\" ;"; v_f (-0.0); v_i (-7) |];
        [| Value.Null; v_f Float.nan; Value.Null |];
        [| Value.String ""; v_f Float.infinity; v_i max_int |];
        [| Value.Bool true; v_f Float.neg_infinity; Value.Date 9131 |];
        [| Value.String "0x1.8p+1"; v_f 0x1.921fb54442d18p+1; v_i 0 |];
      ]
  in
  let back =
    Engine.Shard.partial_of_string (Engine.Shard.partial_to_string rel)
  in
  Alcotest.(check (list string))
    "names survive"
    (Schema.names (Relation.schema rel))
    (Schema.names (Relation.schema back));
  check_rows "cells survive bitwise" (Relation.rows rel) (Relation.rows back);
  (* and the empty partial *)
  let empty =
    Relation.create (Schema.make [ ("__c0", Value.TInt) ]) []
  in
  let back =
    Engine.Shard.partial_of_string (Engine.Shard.partial_to_string empty)
  in
  Alcotest.(check int) "empty partial" 0 (Relation.cardinality back)

(* ---- the shardable class ---- *)

let test_plan_fallbacks () =
  let s = session () in
  let refuses msg sql =
    match Engine.Shard.plan_query s (parse sql) with
    | None -> ()
    | Some _ -> Alcotest.failf "%s should not be shardable: %s" msg sql
  in
  refuses "LIMIT" "select t0.v from t0 limit 3";
  refuses "SELECT *" "select * from t0";
  refuses "subquery" "select t0.v from t0 where t0.v in (select t1.w from t1)";
  refuses "outer join" "select t0.v from t0 left join t1 on t1.fk = t0.id";
  refuses "AVG" "select t0.v, avg(t1.w) from t0, t1 where t1.fk = t0.id \
                 group by t0.v";
  refuses "DISTINCT aggregate" "select distinct t0.v from t0 group by t0.v";
  refuses "self join (no unique table)"
    "select a.v from t0 a, t0 b where a.id = b.id"

let test_partition_table_choice () =
  let s = session () in
  let table_of sql =
    match Engine.Shard.plan_query s (parse sql) with
    | None -> Alcotest.failf "should be shardable: %s" sql
    | Some p -> Engine.Shard.partition_table p
  in
  (* t0 (24 rows) beats t1 (6 rows) when both are in FROM *)
  Alcotest.(check string) "largest table wins" "t0"
    (table_of "select t1.w, t0.v from t1, t0 where t1.fk = t0.id");
  (* only table present is the only candidate *)
  Alcotest.(check string) "single table" "t1"
    (table_of "select t1.w from t1 where t1.w > 0")

(* ---- gather: merge_partials ---- *)

let partial_schema =
  Schema.make
    [ ("__g0", Value.TInt); ("__a0", Value.TInt); ("__a1", Value.TInt) ]

(* group (g, v) pairs into a SUM/COUNT partial, first-occurrence order *)
let partial_of_pairs pairs =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (g, v) ->
      match Hashtbl.find_opt tbl g with
      | None ->
        Hashtbl.add tbl g (v, 1);
        order := g :: !order
      | Some (s, c) -> Hashtbl.replace tbl g (s + v, c + 1))
    pairs;
  Relation.create partial_schema
    (List.rev_map
       (fun g ->
         let s, c = Hashtbl.find tbl g in
         [| v_i g; v_i s; v_i c |])
       !order)

let merge_sum_count partials =
  Engine.Shard.merge_partials ~num_keys:1
    ~aggs:[| Sql.Ast.Sum; Sql.Ast.Count |]
    partials

let test_merge_first_occurrence_order () =
  let p0 = partial_of_pairs [ (5, 10); (2, 20); (5, 1) ] in
  let p1 = partial_of_pairs [ (9, 1); (2, 2); (7, 3) ] in
  let p2 = partial_of_pairs [ (7, 4); (1, 5) ] in
  let merged = merge_sum_count [ p0; p1; p2 ] in
  check_rows "first-occurrence order, sums and counts added"
    [|
      [| v_i 5; v_i 11; v_i 2 |];
      [| v_i 2; v_i 22; v_i 2 |];
      [| v_i 9; v_i 1; v_i 1 |];
      [| v_i 7; v_i 7; v_i 2 |];
      [| v_i 1; v_i 5; v_i 1 |];
    |]
    (Relation.rows merged)

let test_merge_null_and_mixed_cells () =
  let partial rows = Relation.create partial_schema rows in
  (* Null means "this shard saw no rows for the group": absent for
     additive merges, absorbed by min/max *)
  let p0 = partial [ [| v_i 1; Value.Null; v_i 2 |] ] in
  let p1 = partial [ [| v_i 1; v_i 5; Value.Null |] ] in
  let merged = merge_sum_count [ p0; p1 ] in
  check_rows "Null is additive identity"
    [| [| v_i 1; v_i 5; v_i 2 |] |]
    (Relation.rows merged);
  (* Int + Int stays Int; a float operand infects the sum *)
  let q0 = partial [ [| v_i 1; v_i 2; v_i 1 |] ] in
  let q1 = partial [ [| v_i 1; v_f 0.5; v_i 1 |] ] in
  check_rows "mixed operands add as floats"
    [| [| v_i 1; v_f 2.5; v_i 2 |] |]
    (Relation.rows (merge_sum_count [ q0; q1 ]));
  (* min/max merge by Value.compare *)
  let m0 = partial [ [| v_i 1; v_i 7; v_i 3 |] ] in
  let m1 = partial [ [| v_i 1; v_i (-2); Value.Null |] ] in
  let merged =
    Engine.Shard.merge_partials ~num_keys:1
      ~aggs:[| Sql.Ast.Min; Sql.Ast.Max |]
      [ m0; m1 ]
  in
  check_rows "min/max"
    [| [| v_i 1; v_i (-2); v_i 3 |] |]
    (Relation.rows merged)

let test_merge_rejects_avg_and_arity () =
  let p = partial_of_pairs [ (1, 1) ] in
  (* the same key in two partials forces an actual cell merge *)
  (match
     Engine.Shard.merge_partials ~num_keys:1
       ~aggs:[| Sql.Ast.Avg; Sql.Ast.Count |]
       [ p; partial_of_pairs [ (1, 2) ] ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Avg merge should be rejected");
  let narrow =
    Relation.create (Schema.make [ ("__g0", Value.TInt) ]) [ [| v_i 1 |] ]
  in
  match merge_sum_count [ p; narrow ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch should be rejected"

(* ---- merge properties (QCheck) ---- *)

let ( let* ) gen f = QCheck.Gen.( >>= ) gen f

(* rows tagged with the shard that will report them; key space small
   enough that groups routinely span several partials *)
let sharded_rows_gen =
  let* shards = QCheck.Gen.int_range 1 8 in
  let* n = QCheck.Gen.int_range 0 80 in
  let* rows =
    QCheck.Gen.list_size (QCheck.Gen.return n)
      (let* g = QCheck.Gen.int_range 0 6 in
       let* v = QCheck.Gen.int_range (-1000) 1000 in
       let* s = QCheck.Gen.int_range 0 (shards - 1) in
       QCheck.Gen.return (g, v, s))
  in
  QCheck.Gen.return (shards, rows)

let prop_merge_int_exact =
  QCheck.Test.make ~count:200
    ~name:
      "merged SUM/COUNT partials: exact int results in first-occurrence \
       order at any shard count"
    (QCheck.make sharded_rows_gen)
    (fun (shards, rows) ->
      let part s = List.filter_map
          (fun (g, v, s') -> if s' = s then Some (g, v) else None) rows
      in
      let partials = List.init shards (fun s -> partial_of_pairs (part s)) in
      let merged = merge_sum_count partials in
      (* global truth per key *)
      let truth = Hashtbl.create 8 in
      List.iter
        (fun (g, v, _) ->
          let s, c =
            Option.value (Hashtbl.find_opt truth g) ~default:(0, 0)
          in
          Hashtbl.replace truth g (s + v, c + 1))
        rows;
      (* expected key order: first occurrence scanning partials in
         shard order, each partial in its own group order *)
      let seen = Hashtbl.create 8 in
      let expected_order =
        List.concat_map
          (fun p ->
            Relation.rows p |> Array.to_list
            |> List.filter_map (fun row ->
                   match row.(0) with
                   | Value.Int g when not (Hashtbl.mem seen g) ->
                     Hashtbl.add seen g ();
                     Some g
                   | _ -> None))
          partials
      in
      let rows' = Relation.rows merged in
      Alcotest.(check int) "group count" (List.length expected_order)
        (Array.length rows');
      List.iteri
        (fun i g ->
          let s, c = Hashtbl.find truth g in
          check_rows (Printf.sprintf "group %d" g)
            [| [| v_i g; v_i s; v_i c |] |]
            [| rows'.(i) |])
        expected_order;
      true)

(* sixteenths-grid floats: dyadic rationals whose sums are exact, so
   the merged sum must be bit-equal to any single-shard association *)
let sixteenths_gen =
  let* shards = QCheck.Gen.int_range 2 8 in
  let* n = QCheck.Gen.int_range 0 80 in
  let* rows =
    QCheck.Gen.list_size (QCheck.Gen.return n)
      (let* g = QCheck.Gen.int_range 0 4 in
       let* k = QCheck.Gen.int_range (-64) 64 in
       let* s = QCheck.Gen.int_range 0 (shards - 1) in
       QCheck.Gen.return (g, float_of_int k /. 16.0, s))
  in
  QCheck.Gen.return (shards, rows)

let float_partial_of pairs =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (g, v) ->
      match Hashtbl.find_opt tbl g with
      | None ->
        Hashtbl.add tbl g v;
        order := g :: !order
      | Some s -> Hashtbl.replace tbl g (s +. v))
    pairs;
  Relation.create
    (Schema.make [ ("__g0", Value.TInt); ("__a0", Value.TFloat) ])
    (List.rev !order |> List.map (fun g -> [| v_i g; v_f (Hashtbl.find tbl g) |]))

let prop_merge_sixteenths_bitwise =
  QCheck.Test.make ~count:200
    ~name:"sixteenths-grid float SUMs merge bit-equal to single-shard"
    (QCheck.make sixteenths_gen)
    (fun (shards, rows) ->
      let pairs_of s =
        List.filter_map
          (fun (g, v, s') -> if s' = s then Some (g, v) else None)
          rows
      in
      let merged =
        Engine.Shard.merge_partials ~num_keys:1 ~aggs:[| Sql.Ast.Sum |]
          (List.init shards (fun s -> float_partial_of (pairs_of s)))
      in
      let single =
        float_partial_of (List.map (fun (g, v, _) -> (g, v)) rows)
      in
      check_same_bag "sharded sum = single-shard sum" single merged;
      true)

(* ---- end-to-end: sharded = unsharded ---- *)

let e2e_queries =
  [
    "select t0.v from t0 where t0.v >= 1";
    "select t1.w, t0.v from t1, t0 where t1.fk = t0.id";
    "select distinct t0.v from t0";
    "select t0.v, count(*), sum(t1.w), min(t1.w), max(t1.w) from t0, t1 \
     where t1.fk = t0.id group by t0.v";
    "select t0.v, count(*) from t0, t1 where t1.fk = t0.id group by t0.v \
     having count(*) >= 1 order by t0.v";
    "select t0.v, sum(t0.prob) from t0 group by t0.v order by t0.v";
  ]

let test_query_matches_unsharded () =
  let dirty = dirty_db () in
  let base = base_of dirty in
  List.iter
    (fun shards ->
      let s = Engine.Shard.create ~base ~shards dirty in
      List.iter
        (fun sql ->
          let q = parse sql in
          let unsharded = Engine.Database.query_ast base q in
          match Engine.Shard.query_ast s q with
          | None -> Alcotest.failf "should be shardable: %s" sql
          | Some sharded ->
            check_same_bag
              (Printf.sprintf "shards=%d: %s" shards sql)
              unsharded sharded)
        e2e_queries;
      (* ORDER BY over unique group keys fixes the row order exactly *)
      let q =
        parse
          "select t0.v, count(*) from t0, t1 where t1.fk = t0.id \
           group by t0.v order by t0.v"
      in
      match Engine.Shard.query_ast s q with
      | None -> Alcotest.fail "ordered aggregate should be shardable"
      | Some sharded ->
        check_same_relation
          (Printf.sprintf "shards=%d ordered" shards)
          (Engine.Database.query_ast base q)
          sharded)
    [ 1; 2; 4; 8 ]

let test_query_within_cancel_and_stop () =
  let s = session ~shards:4 () in
  let q = parse "select t1.w, t0.v from t1, t0 where t1.fk = t0.id" in
  (match Engine.Shard.query_ast_within s q with
  | None -> Alcotest.fail "join should be shardable"
  | Some (_, { Engine.Database.truncated; cancelled }) ->
    Alcotest.(check bool) "not truncated" false truncated;
    Alcotest.(check bool) "not cancelled" false cancelled);
  let tripped = Engine.Cancel.create () in
  Engine.Cancel.cancel tripped;
  match Engine.Shard.query_ast_within ~cancel:tripped s q with
  | None -> Alcotest.fail "join should be shardable"
  | Some (_, { Engine.Database.cancelled; _ }) ->
    Alcotest.(check bool) "tripped token surfaces" true cancelled

(* ---- ROADMAP 1b regression: many-group parallel aggregation ---- *)

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
  let sql =
    "select g, count(*), sum(v), min(v), max(v) from t group by g"
  in
  let at jobs =
    Engine.Database.query
      ~config:{ Engine.Planner.default_config with jobs }
      engine sql
  in
  let serial = at 1 in
  Alcotest.(check int) "group count" n_groups (Relation.cardinality serial);
  check_same_relation "jobs=4 = jobs=1" serial (at 4)

let () =
  Alcotest.run "shard"
    [
      ( "partition",
        [
          Alcotest.test_case "clusters stay whole" `Quick
            test_partition_clusters_whole;
          Alcotest.test_case "create rejects shards < 1" `Quick
            test_create_rejects_bad_shards;
          Alcotest.test_case "overlay swaps one table" `Quick
            test_overlay_swaps_one_table;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "fragment codec" `Quick test_fragment_codec;
          Alcotest.test_case "partial codec" `Quick test_partial_codec;
          Alcotest.test_case "fallback class" `Quick test_plan_fallbacks;
          Alcotest.test_case "partition table choice" `Quick
            test_partition_table_choice;
        ] );
      ( "merge",
        [
          Alcotest.test_case "first-occurrence order" `Quick
            test_merge_first_occurrence_order;
          Alcotest.test_case "null and mixed cells" `Quick
            test_merge_null_and_mixed_cells;
          Alcotest.test_case "rejects Avg and arity mismatch" `Quick
            test_merge_rejects_avg_and_arity;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_merge_int_exact; prop_merge_sixteenths_bitwise ] );
      ( "end to end",
        [
          Alcotest.test_case "sharded = unsharded at 1/2/4/8" `Quick
            test_query_matches_unsharded;
          Alcotest.test_case "stop flags propagate" `Quick
            test_query_within_cancel_and_stop;
        ] );
      ( "grouped aggregation",
        [
          Alcotest.test_case "12k groups bitwise at jobs=1 and jobs=4 (ROADMAP 1b)"
            `Quick test_many_group_aggregate;
        ] );
    ]
