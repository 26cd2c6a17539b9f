(* Tests for the data-model substrate: values, schemas, relations,
   CSV, clusterings, dirty databases and identifier propagation. *)

open Dirty

let v_s s = Value.String s
let v_i i = Value.Int i
let v_f f = Value.Float f

(* ---- Value ---- *)

let test_value_compare () =
  Alcotest.(check bool) "int/float numeric order" true
    (Value.compare (v_i 2) (v_f 2.5) < 0);
  Alcotest.(check bool) "int/float equality" true
    (Value.equal (v_i 2) (v_f 2.0));
  Alcotest.(check bool) "null sorts first" true
    (Value.compare Value.Null (v_i (-100)) < 0);
  Alcotest.(check bool) "strings ordered" true
    (Value.compare (v_s "abc") (v_s "abd") < 0);
  Alcotest.(check int) "null equals null" 0 (Value.compare Value.Null Value.Null)

(* int/float comparison must be exact: above 2^53 consecutive ints map
   onto the same float, so rounding the int would collapse distinct
   keys and break transitivity of [equal] *)
let test_value_compare_exact () =
  let big = 1 lsl 53 in
  Alcotest.(check bool) "2^53 and 2^53+1 stay distinct" false
    (Value.equal (v_i big) (v_i (big + 1)));
  Alcotest.(check bool) "small int/float equality" true
    (Value.equal (v_i 1) (v_f 1.0));
  Alcotest.(check bool) "2^53 equals its float image" true
    (Value.equal (v_i big) (v_f (float_of_int big)));
  (* float_of_int (2^53 + 1) rounds down to 2^53: only one of the two
     ints may compare equal to the float *)
  Alcotest.(check bool) "2^53+1 is above the rounded float" true
    (Value.compare (v_i (big + 1)) (v_f (float_of_int big)) > 0);
  Alcotest.(check bool) "fractional floats stay strict" true
    (Value.compare (v_i 3) (v_f 3.5) < 0
    && Value.compare (v_f 3.5) (v_i 4) < 0);
  Alcotest.(check bool) "negative mirror" true
    (Value.compare (v_i (-(big + 1))) (v_f (float_of_int (-big))) < 0);
  Alcotest.(check bool) "huge float beyond int range" true
    (Value.compare (v_i max_int) (v_f 1e19) < 0
    && Value.compare (v_i min_int) (v_f (-1e19)) > 0);
  Alcotest.(check bool) "nan sorts below ints" true
    (Value.compare (v_f Float.nan) (v_i min_int) < 0
    && Value.compare (v_i min_int) (v_f Float.nan) > 0)

let test_value_hash_consistent () =
  Alcotest.(check int) "equal numerics hash alike"
    (Value.hash (v_i 7))
    (Value.hash (v_f 7.0))

let test_value_parse () =
  Alcotest.(check bool) "int" true (Value.equal (Value.parse "42") (v_i 42));
  Alcotest.(check bool) "float" true (Value.equal (Value.parse "3.5") (v_f 3.5));
  Alcotest.(check bool) "negative" true (Value.equal (Value.parse "-7") (v_i (-7)));
  Alcotest.(check bool) "string" true
    (Value.equal (Value.parse "hello world") (v_s "hello world"));
  Alcotest.(check bool) "empty is null" true (Value.is_null (Value.parse ""));
  Alcotest.(check bool) "NULL is null" true (Value.is_null (Value.parse "NULL"));
  Alcotest.(check bool) "bool" true (Value.equal (Value.parse "true") (Value.Bool true))

let accepts s =
  match Value.date_of_string s with
  | _ -> true
  | exception Invalid_argument _ -> false

let test_value_dates () =
  let d = Value.date_of_string "1995-03-15" in
  (match d with
  | Value.Date days ->
    Alcotest.(check string) "round trip" "1995-03-15" (Value.string_of_date days)
  | _ -> Alcotest.fail "expected a date");
  Alcotest.(check bool) "epoch" true
    (Value.equal (Value.date_of_string "1970-01-01") (Value.Date 0));
  Alcotest.(check bool) "day after epoch" true
    (Value.equal (Value.date_of_string "1970-01-02") (Value.Date 1));
  Alcotest.(check bool) "2000-02-29 (leap year divisible by 400)" true
    (Value.equal (Value.date_of_string "2000-02-29") (Value.Date 11016));
  Alcotest.(check bool) "parse picks up dates" true
    (Value.equal (Value.parse "1995-03-15") (Value.date_of_string "1995-03-15"));
  (match Value.date_of_string "1995-13-01" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad month accepted");
  (* a day the month does not have is rejected, not rolled over *)
  Alcotest.(check bool) "2020-02-29 (leap year)" true (accepts "2020-02-29");
  Alcotest.(check bool) "2021-02-29 (common year)" false (accepts "2021-02-29");
  Alcotest.(check bool) "1900-02-29 (divisible by 100 only)" false
    (accepts "1900-02-29");
  Alcotest.(check bool) "2021-02-30" false (accepts "2021-02-30");
  Alcotest.(check bool) "2021-04-31" false (accepts "2021-04-31");
  Alcotest.(check bool) "2021-12-31" true (accepts "2021-12-31");
  (* only YYYY-MM-DD in ASCII digits: no int_of_string syntax in a part *)
  List.iter
    (fun s -> Alcotest.(check bool) s false (accepts s))
    [
      "1_995-03-01"; "1995-0_3-01"; "1995-03-0_1"; "1_995-0x3-0_1";
      "0x7CB-03-01"; "1995-0x3-01"; "1995-03-0x1"; "1995-0o3-01";
      "1995-0b1-01"; "+1995-03-01"; "1995-+3-01"; "1995-03-+1";
      "-1995-03-01"; "1995--3-01"; "1995-3-01"; "1995-03-1"; "995-03-01";
      "1995-3-1"; "01995-03-01"; " 1995-03-01"; "1995-03-01 ";
    ];
  (* a CSV cell holding an impossible date stays a string *)
  Alcotest.(check bool) "parse keeps it a string" true
    (Value.equal (Value.parse "2021-02-30") (v_s "2021-02-30"))

(* the Gregorian calendar, written out independently of [Value] *)
let real_date y m d =
  let leap = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0 in
  let days = [| 31; (if leap then 29 else 28); 31; 30; 31; 30; 31; 31; 30; 31; 30; 31 |] in
  d <= days.(m - 1)

(* how a part of a date string is spelled: as printed (0), or with one
   piece of int_of_string syntax that the parser must refuse *)
let spell part = function
  | 1 -> String.sub part 0 1 ^ "_" ^ String.sub part 1 (String.length part - 1)
  | 2 -> "0x" ^ part
  | 3 -> "0o" ^ part
  | 4 -> "0b" ^ part
  | 5 -> "+" ^ part
  | 6 -> "-" ^ part
  | 7 -> String.sub part 1 (String.length part - 1)
  | _ -> part

let prop_date_accepted_iff_real =
  QCheck.Test.make ~count:2000
    ~name:
      "a date is accepted iff it is real, and spelled YYYY-MM-DD in digits; \
       it round-trips"
    QCheck.(
      quad (int_range 0 9999) (int_range 1 12) (int_range 1 31)
        (pair (int_range (-7) 7) (int_range 0 2)))
    (fun (y, m, d, (how, which)) ->
      let parts =
        [| Printf.sprintf "%04d" y; Printf.sprintf "%02d" m; Printf.sprintf "%02d" d |]
      in
      parts.(which) <- spell parts.(which) how;
      let s = String.concat "-" (Array.to_list parts) in
      let well_formed = how <= 0 in
      match Value.date_of_string s with
      | Value.Date days ->
        well_formed
        && real_date y m d
        && (Value.string_of_date days = s
           || QCheck.Test.fail_reportf "%s reads back as %s" s
                (Value.string_of_date days))
      | _ -> QCheck.Test.fail_reportf "%s parsed to a non-date" s
      | exception Invalid_argument _ -> not (well_formed && real_date y m d))

let test_value_date_ordering () =
  Alcotest.(check bool) "dates ordered" true
    (Value.compare
       (Value.date_of_string "1994-12-31")
       (Value.date_of_string "1995-01-01")
    < 0)

let test_value_sql_literals () =
  Alcotest.(check string) "string quoting" "'it''s'" (Value.to_sql (v_s "it's"));
  Alcotest.(check string) "null" "NULL" (Value.to_sql Value.Null);
  Alcotest.(check string) "date" "DATE '1995-03-15'"
    (Value.to_sql (Value.date_of_string "1995-03-15"))

(* ---- Schema ---- *)

let abc () =
  Schema.make [ ("a", Value.TInt); ("b", Value.TString); ("c", Value.TFloat) ]

let test_schema_basics () =
  let s = abc () in
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check (list string)) "names" [ "a"; "b"; "c" ] (Schema.names s);
  Alcotest.(check int) "index" 1 (Schema.index_of s "b");
  Alcotest.(check int) "case-insensitive lookup" 1 (Schema.index_of s "B");
  Alcotest.(check bool) "mem" true (Schema.mem s "c");
  Alcotest.(check bool) "not mem" false (Schema.mem s "z")

let test_schema_duplicate_rejected () =
  match Schema.make [ ("x", Value.TInt); ("x", Value.TInt) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let test_schema_project_append_rename () =
  let s = abc () in
  Alcotest.(check (list string)) "project" [ "c"; "a" ]
    (Schema.names (Schema.project s [ "c"; "a" ]));
  let appended = Schema.append s (Schema.make [ ("a", Value.TInt) ]) in
  Alcotest.(check (list string)) "append disambiguates"
    [ "a"; "b"; "c"; "a_2" ] (Schema.names appended);
  let renamed = Schema.rename ~prefix:"t" s in
  Alcotest.(check (list string)) "rename" [ "t.a"; "t.b"; "t.c" ]
    (Schema.names renamed)

(* ---- Relation ---- *)

let small_rel () =
  Relation.create (abc ())
    [
      [| v_i 1; v_s "x"; v_f 1.5 |];
      [| v_i 2; v_s "y"; v_f 2.5 |];
      [| v_i 2; v_s "y"; v_f 2.5 |];
      [| v_i 3; v_s "z"; v_f 0.5 |];
    ]

let test_relation_basics () =
  let r = small_rel () in
  Alcotest.(check int) "cardinality" 4 (Relation.cardinality r);
  Alcotest.(check bool) "value lookup" true
    (Value.equal (Relation.value r (Relation.get r 1) "b") (v_s "y"));
  Alcotest.(check int) "column length" 4 (Array.length (Relation.column r "a"))

let test_relation_arity_mismatch () =
  match Relation.create (abc ()) [ [| v_i 1 |] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short row accepted"

let test_relation_filter_project () =
  let r = small_rel () in
  let evens =
    Relation.filter (fun row -> Value.equal row.(0) (v_i 2)) r
  in
  Alcotest.(check int) "filter" 2 (Relation.cardinality evens);
  let projected = Relation.project r [ "b" ] in
  Alcotest.(check (list string)) "projected schema" [ "b" ]
    (Schema.names (Relation.schema projected))

let test_relation_distinct () =
  let d = Relation.distinct (small_rel ()) in
  Alcotest.(check int) "duplicates removed" 3 (Relation.cardinality d)

let test_relation_sort () =
  let r = small_rel () in
  let sorted = Relation.sort_by (fun a b -> Value.compare b.(2) a.(2)) r in
  Alcotest.(check bool) "descending by c" true
    (Value.equal (Relation.get sorted 0).(2) (v_f 2.5))

let test_relation_bag_equal () =
  let r = small_rel () in
  let shuffled =
    Relation.create (abc ())
      (List.rev (Relation.row_list r))
  in
  Alcotest.(check bool) "order-insensitive" true (Relation.equal_as_bags r shuffled);
  Alcotest.(check bool) "distinct differs" false
    (Relation.equal_as_bags r (Relation.distinct r))

let test_relation_append_mismatch () =
  let r = small_rel () in
  let other = Relation.create (Schema.make [ ("a", Value.TInt) ]) [] in
  match Relation.append r other with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "schema mismatch accepted"

(* ---- CSV ---- *)

let test_csv_parse_line () =
  Alcotest.(check (list string)) "simple" [ "a"; "b"; "c" ]
    (Csv.parse_line "a,b,c");
  Alcotest.(check (list string)) "quoted" [ "a,b"; "c" ]
    (Csv.parse_line "\"a,b\",c");
  Alcotest.(check (list string)) "escaped quote" [ "say \"hi\""; "x" ]
    (Csv.parse_line "\"say \"\"hi\"\"\",x");
  Alcotest.(check (list string)) "empty fields" [ ""; ""; "x" ]
    (Csv.parse_line ",,x")

let test_csv_render_roundtrip () =
  let fields = [ "plain"; "with,comma"; "with\"quote"; "" ] in
  Alcotest.(check (list string)) "roundtrip" fields
    (Csv.parse_line (Csv.render_line fields))

let test_csv_relation_roundtrip () =
  let r = small_rel () in
  let path = Filename.temp_file "conquer" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write_file path r;
      let r' = Csv.load_file path in
      Alcotest.(check bool) "same bag of rows" true (Relation.equal_as_bags r r'))

let test_csv_type_inference () =
  let rel =
    Csv.relation_of_rows
      [ [ "k"; "v" ]; [ "1"; "x" ]; [ "2"; "y" ]; [ "3"; "1.5" ] ]
  in
  let schema = Relation.schema rel in
  Alcotest.(check string) "int column" "INTEGER"
    (Value.ty_name (Schema.attribute_at schema 0).ty)

(* ---- Cluster ---- *)

let test_cluster_grouping () =
  let r = Fixtures.customers_relation () in
  let c = Cluster.of_relation r ~id_attr:"id" in
  Alcotest.(check int) "two clusters" 2 (Cluster.num_clusters c);
  Alcotest.(check (list int)) "c1 members" [ 0; 1 ] (Cluster.members c (v_s "c1"));
  Alcotest.(check (list int)) "c2 members" [ 2; 3 ] (Cluster.members c (v_s "c2"));
  Alcotest.(check bool) "row ownership" true
    (Value.equal (Cluster.cluster_of_row c 3) (v_s "c2"));
  Alcotest.(check int) "max size" 2 (Cluster.max_cluster_size c);
  Alcotest.(check (float 1e-9)) "mean size" 2.0 (Cluster.mean_cluster_size c)

let test_cluster_singleton () =
  let c = Cluster.of_assignment ~size:3 (fun i -> v_i i) in
  Alcotest.(check int) "three singleton clusters" 3 (Cluster.num_clusters c);
  Alcotest.(check bool) "singleton" true (Cluster.is_singleton c (v_i 0))

(* ---- Dirty_db ---- *)

let test_dirty_db_validation () =
  let bad =
    Relation.create
      (Schema.make [ ("id", Value.TString); ("prob", Value.TFloat) ])
      [ [| v_s "c1"; v_f 0.5 |]; [| v_s "c1"; v_f 0.3 |] ]
  in
  (match Dirty_db.make_table ~name:"t" ~id_attr:"id" ~prob_attr:"prob" bad with
  | exception Dirty_db.Invalid msg ->
    Alcotest.(check bool) "mentions the sum" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "invalid probabilities accepted");
  (* unvalidated construction then explicit validation *)
  let t = Dirty_db.make_table ~validate:false ~name:"t" ~id_attr:"id" ~prob_attr:"prob" bad in
  Alcotest.(check bool) "violations reported" true
    (Dirty_db.table_validate t <> [])

let test_dirty_db_out_of_range () =
  let bad =
    Relation.create
      (Schema.make [ ("id", Value.TString); ("prob", Value.TFloat) ])
      [ [| v_s "c1"; v_f 1.5 |]; [| v_s "c1"; v_f (-0.5) |] ]
  in
  match Dirty_db.make_table ~name:"t" ~id_attr:"id" ~prob_attr:"prob" bad with
  | exception Dirty_db.Invalid _ -> ()
  | _ -> Alcotest.fail "out-of-range probability accepted"

let test_dirty_db_of_clean () =
  let clean =
    Relation.create
      (Schema.make [ ("k", Value.TInt); ("v", Value.TString) ])
      [ [| v_i 1; v_s "x" |]; [| v_i 2; v_s "y" |] ]
  in
  let t = Dirty_db.of_clean ~name:"c" ~id_attr:"k" clean in
  Alcotest.(check (float 1e-12)) "prob 1" 1.0 (Dirty_db.row_probability t 0);
  Alcotest.(check int) "clusters = rows" 2 (Cluster.num_clusters t.clustering)

let test_dirty_db_with_probabilities () =
  let t =
    Dirty_db.make_table ~name:"customer" ~id_attr:"id" ~prob_attr:"prob"
      (Fixtures.customers_relation ())
  in
  let t' = Dirty_db.with_probabilities t [| 0.4; 0.6; 0.5; 0.5 |] in
  Fixtures.check_float "updated" 0.4 (Dirty_db.row_probability t' 0);
  (match Dirty_db.with_probabilities t [| 0.9; 0.9; 0.5; 0.5 |] with
  | exception Dirty_db.Invalid _ -> ()
  | _ -> Alcotest.fail "invalid update accepted")

let test_dirty_db_catalog () =
  let db = Fixtures.figure2_db () in
  Alcotest.(check (list string)) "table names" [ "customer"; "orders" ]
    (Dirty_db.table_names db);
  Alcotest.(check bool) "lookup" true
    (Option.is_some (Dirty_db.find_table_opt db "orders"));
  Alcotest.(check (list string)) "validates" [] (Dirty_db.validate db);
  (match Dirty_db.add_table db (Dirty_db.find_table db "orders") with
  | exception Dirty_db.Invalid _ -> ()
  | _ -> Alcotest.fail "duplicate table accepted")

let test_propagation () =
  (* orders reference customers by their per-tuple key custid; after
     propagation cidfk carries the customer cluster identifier *)
  let orders =
    Relation.create
      (Schema.make
         [
           ("id", Value.TString);
           ("custfk", Value.TString);
           ("cidfk", Value.TString);
           ("prob", Value.TFloat);
         ])
      [
        [| v_s "o1"; v_s "m2"; Value.Null; v_f 1.0 |];
        [| v_s "o2"; v_s "m4"; Value.Null; v_f 1.0 |];
        [| v_s "o3"; v_s "zz"; Value.Null; v_f 1.0 |];
      ]
  in
  let customer =
    Dirty_db.make_table ~name:"customer" ~id_attr:"id" ~prob_attr:"prob"
      (Fixtures.customers_relation ())
  in
  let order_table =
    Dirty_db.make_table ~name:"orders" ~id_attr:"id" ~prob_attr:"prob" orders
  in
  let propagated =
    Dirty_db.propagate ~src:customer ~src_key:"custid" ~dst:order_table
      ~fk_attr:"custfk" ~out_attr:"cidfk"
  in
  let col = Relation.column propagated.relation "cidfk" in
  Alcotest.(check bool) "m2 -> c1" true (Value.equal col.(0) (v_s "c1"));
  Alcotest.(check bool) "m4 -> c2" true (Value.equal col.(1) (v_s "c2"));
  Alcotest.(check bool) "unmatched -> null" true (Value.is_null col.(2))

let test_propagation_fresh_column () =
  let orders =
    Relation.create
      (Schema.make
         [ ("id", Value.TString); ("custfk", Value.TString); ("prob", Value.TFloat) ])
      [ [| v_s "o1"; v_s "m1"; v_f 1.0 |] ]
  in
  let customer =
    Dirty_db.make_table ~name:"customer" ~id_attr:"id" ~prob_attr:"prob"
      (Fixtures.customers_relation ())
  in
  let order_table =
    Dirty_db.make_table ~name:"orders" ~id_attr:"id" ~prob_attr:"prob" orders
  in
  let propagated =
    Dirty_db.propagate ~src:customer ~src_key:"custid" ~dst:order_table
      ~fk_attr:"custfk" ~out_attr:"cidfk"
  in
  Alcotest.(check bool) "column appended" true
    (Schema.mem (Relation.schema propagated.relation) "cidfk")

let test_propagation_requires_unique_key () =
  let customer =
    Dirty_db.make_table ~name:"customer" ~id_attr:"id" ~prob_attr:"prob"
      (Fixtures.customers_relation ())
  in
  (* the identifier column is not unique; using it as the source key
     must be rejected *)
  match
    Dirty_db.propagate ~src:customer ~src_key:"name" ~dst:customer
      ~fk_attr:"custid" ~out_attr:"x"
  with
  | exception Dirty_db.Invalid _ -> ()
  | _ -> Alcotest.fail "non-unique key accepted"

(* ---- Store ---- *)

let with_temp_dir = Testutil.with_temp_dir

let test_store_roundtrip () =
  with_temp_dir (fun dir ->
      let db = Fixtures.figure2_db () in
      Store.save dir db;
      let db' = Store.load dir in
      Alcotest.(check (list string))
        "same tables" (Dirty_db.table_names db) (Dirty_db.table_names db');
      List.iter2
        (fun (a : Dirty_db.table) (b : Dirty_db.table) ->
          Alcotest.(check string) "id attr" a.id_attr b.id_attr;
          Alcotest.(check string) "prob attr" a.prob_attr b.prob_attr;
          Alcotest.(check bool)
            (a.name ^ " rows preserved")
            true
            (Relation.equal_as_bags a.relation b.relation))
        (Dirty_db.tables db) (Dirty_db.tables db'))

let test_store_load_is_queryable () =
  with_temp_dir (fun dir ->
      Store.save dir (Fixtures.figure2_db ());
      let db = Store.load dir in
      let s = Conquer.Clean.create db in
      let answers = Conquer.Clean.answers s Fixtures.q1 in
      Fixtures.expect_answer answers [ v_s "c1" ] 1.0;
      Fixtures.expect_answer answers [ v_s "c2" ] 0.2)

let test_store_missing_manifest () =
  with_temp_dir (fun dir ->
      match Store.load dir with
      | exception Sys_error _ -> ()
      | _ -> Alcotest.fail "missing manifest accepted")

let () =
  Alcotest.run "dirty"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "exact int/float compare" `Quick
            test_value_compare_exact;
          Alcotest.test_case "hash consistency" `Quick test_value_hash_consistent;
          Alcotest.test_case "parse" `Quick test_value_parse;
          Alcotest.test_case "dates" `Quick test_value_dates;
          QCheck_alcotest.to_alcotest ~long:false prop_date_accepted_iff_real;
          Alcotest.test_case "date ordering" `Quick test_value_date_ordering;
          Alcotest.test_case "sql literals" `Quick test_value_sql_literals;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "duplicates rejected" `Quick
            test_schema_duplicate_rejected;
          Alcotest.test_case "project/append/rename" `Quick
            test_schema_project_append_rename;
        ] );
      ( "relation",
        [
          Alcotest.test_case "basics" `Quick test_relation_basics;
          Alcotest.test_case "arity mismatch" `Quick test_relation_arity_mismatch;
          Alcotest.test_case "filter/project" `Quick test_relation_filter_project;
          Alcotest.test_case "distinct" `Quick test_relation_distinct;
          Alcotest.test_case "sort" `Quick test_relation_sort;
          Alcotest.test_case "bag equality" `Quick test_relation_bag_equal;
          Alcotest.test_case "append mismatch" `Quick test_relation_append_mismatch;
        ] );
      ( "csv",
        [
          Alcotest.test_case "parse line" `Quick test_csv_parse_line;
          Alcotest.test_case "render roundtrip" `Quick test_csv_render_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_csv_relation_roundtrip;
          Alcotest.test_case "type inference" `Quick test_csv_type_inference;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "grouping" `Quick test_cluster_grouping;
          Alcotest.test_case "singletons" `Quick test_cluster_singleton;
        ] );
      ( "dirty_db",
        [
          Alcotest.test_case "validation" `Quick test_dirty_db_validation;
          Alcotest.test_case "out of range" `Quick test_dirty_db_out_of_range;
          Alcotest.test_case "of_clean" `Quick test_dirty_db_of_clean;
          Alcotest.test_case "with_probabilities" `Quick
            test_dirty_db_with_probabilities;
          Alcotest.test_case "catalog" `Quick test_dirty_db_catalog;
          Alcotest.test_case "propagation" `Quick test_propagation;
          Alcotest.test_case "propagation appends column" `Quick
            test_propagation_fresh_column;
          Alcotest.test_case "propagation unique key" `Quick
            test_propagation_requires_unique_key;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "loaded db queryable" `Quick
            test_store_load_is_queryable;
          Alcotest.test_case "missing manifest" `Quick test_store_missing_manifest;
        ] );
    ]
