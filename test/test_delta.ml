(* Dirty.Delta and Store v3 delta generations: op semantics and
   validation, the CSV record round-trip, chain commit/load/compaction
   mechanics, retention, the per-generation integrity report, and
   recovery of delta debris.  The crash matrix for the write path
   lives in test_chaos.ml; the maintenance differential in
   test_fuzz.ml. *)

open Dirty

let v_s s = Value.String s
let v_i i = Value.Int i
let v_f f = Value.Float f

let table_of_clusters = Fuzz.Dbgen.store_table_of_clusters
let db_of_tables = Fuzz.Dbgen.db_of_tables

(* alpha: a1 = {1@10/16, 2@6/16}, a2 = {3@16/16}; beta: b1 = {7,8} *)
let base () =
  db_of_tables
    [
      table_of_clusters "alpha"
        [ ("a1", [ (1, 10); (2, 6) ]); ("a2", [ (3, 16) ]) ];
      table_of_clusters "beta" [ ("b1", [ (7, 8); (8, 8) ]) ];
    ]

let find db name = Dirty_db.find_table db name

let cluster_probs (t : Dirty_db.table) cid =
  let schema = Relation.schema t.relation in
  let idi = Schema.index_of schema t.id_attr in
  let pi = Schema.index_of schema t.prob_attr in
  Relation.fold
    (fun acc row ->
      if Value.equal row.(idi) (v_s cid) then
        acc @ [ Option.get (Value.to_float row.(pi)) ]
      else acc)
    [] t.relation

let cluster_sum t cid = List.fold_left ( +. ) 0.0 (cluster_probs t cid)

let check_sum name t cid =
  Alcotest.(check (float 0.0)) name 1.0 (cluster_sum t cid)

(* ---- op semantics ---- *)

let test_insert_existing_cluster () =
  let o =
    Delta.apply (base ())
      [ Delta.Insert { table = "alpha"; row = [| v_s "a1"; v_i 9; v_f 0.25 |] } ]
  in
  let t = find o.db "alpha" in
  Alcotest.(check int) "cluster grew" 3 (List.length (cluster_probs t "a1"));
  check_sum "renormalized to 1" t "a1";
  Alcotest.(check (list (pair string string))) "touched"
    [ ("alpha", "a1") ]
    (List.map (fun (tb, c) -> (tb, Value.to_string c)) o.touched)

let test_insert_new_cluster () =
  let o =
    Delta.apply (base ())
      [ Delta.Insert { table = "beta"; row = [| v_s "b9"; v_i 1; v_f 0.5 |] } ]
  in
  let t = find o.db "beta" in
  check_sum "singleton renormalized to 1" t "b9";
  Alcotest.(check (float 0.0)) "existing cluster untouched bit-for-bit" 0.5
    (List.hd (cluster_probs t "b1"))

let test_delete_member () =
  let o =
    Delta.apply (base ())
      [ Delta.Delete { table = "alpha"; cluster = v_s "a1"; member = 1 } ]
  in
  let t = find o.db "alpha" in
  Alcotest.(check (list (float 0.0))) "survivor renormalized" [ 1.0 ]
    (cluster_probs t "a1")

let test_delete_last_tuple_removes_cluster () =
  let o =
    Delta.apply (base ())
      [ Delta.Delete { table = "alpha"; cluster = v_s "a2"; member = 0 } ]
  in
  let t = find o.db "alpha" in
  Alcotest.(check (list (float 0.0))) "cluster gone" [] (cluster_probs t "a2");
  Alcotest.(check int) "other cluster intact" 2
    (List.length (cluster_probs t "a1"))

let test_split () =
  let o =
    Delta.apply (base ())
      [
        Delta.Split
          { table = "alpha"; cluster = v_s "a1"; into = v_s "a9"; members = [ 0 ] };
      ]
  in
  let t = find o.db "alpha" in
  check_sum "source renormalized" t "a1";
  check_sum "target renormalized" t "a9";
  (* both sides touched *)
  Alcotest.(check int) "touched both clusters" 2 (List.length o.touched)

let test_merge () =
  let o =
    Delta.apply (base ()) [ Delta.Merge { table = "alpha"; from_ = v_s "a2"; into = v_s "a1" } ]
  in
  let t = find o.db "alpha" in
  Alcotest.(check (list (float 0.0))) "source gone" [] (cluster_probs t "a2");
  Alcotest.(check int) "merged size" 3 (List.length (cluster_probs t "a1"));
  check_sum "merged cluster renormalized" t "a1"

let test_reassign_exact_bits () =
  let o =
    Delta.apply (base ())
      [
        Delta.Reassign
          { table = "alpha"; cluster = v_s "a1"; weights = [| 0.25; 0.75 |] };
      ]
  in
  let t = find o.db "alpha" in
  (* weights summing to exactly 1 are assigned bit-for-bit *)
  Alcotest.(check (list (float 0.0))) "exact assignment" [ 0.25; 0.75 ]
    (cluster_probs t "a1")

let test_apply_is_functional () =
  let db = base () in
  ignore
    (Delta.apply db
       [ Delta.Delete { table = "alpha"; cluster = v_s "a1"; member = 0 } ]);
  Alcotest.(check int) "input database unchanged" 2
    (List.length (cluster_probs (find db "alpha") "a1"))

let invalid name op =
  Alcotest.test_case name `Quick (fun () ->
      match Delta.apply (base ()) [ op ] with
      | _ -> Alcotest.failf "%s: expected Delta.Invalid" name
      | exception Delta.Invalid _ -> ())

let invalid_cases =
  [
    invalid "unknown table"
      (Delta.Insert { table = "nope"; row = [| v_s "x"; v_i 0; v_f 1.0 |] });
    invalid "unknown cluster"
      (Delta.Delete { table = "alpha"; cluster = v_s "zz"; member = 0 });
    invalid "ordinal out of range"
      (Delta.Delete { table = "alpha"; cluster = v_s "a1"; member = 5 });
    invalid "duplicate split members"
      (Delta.Split
         { table = "alpha"; cluster = v_s "a1"; into = v_s "a9"; members = [ 0; 0 ] });
    invalid "split into itself"
      (Delta.Split
         { table = "alpha"; cluster = v_s "a1"; into = v_s "a1"; members = [ 0 ] });
    invalid "merge into itself"
      (Delta.Merge { table = "alpha"; from_ = v_s "a1"; into = v_s "a1" });
    invalid "weight count mismatch"
      (Delta.Reassign { table = "alpha"; cluster = v_s "a1"; weights = [| 1.0 |] });
    invalid "negative weight"
      (Delta.Reassign
         { table = "alpha"; cluster = v_s "a1"; weights = [| -1.0; 2.0 |] });
    invalid "zero weight sum"
      (Delta.Reassign
         { table = "alpha"; cluster = v_s "a1"; weights = [| 0.0; 0.0 |] });
    invalid "insert arity mismatch"
      (Delta.Insert { table = "alpha"; row = [| v_s "a1"; v_i 0 |] });
    invalid "insert null identifier"
      (Delta.Insert { table = "alpha"; row = [| Value.Null; v_i 0; v_f 1.0 |] });
    invalid "insert probability out of range"
      (Delta.Insert { table = "alpha"; row = [| v_s "a1"; v_i 0; v_f 1.5 |] });
  ]

(* ---- record round-trip ---- *)

let test_roundtrip () =
  let batch =
    [
      Delta.Insert { table = "alpha"; row = [| v_s "a,1"; v_i 7; v_f 0.125 |] };
      Delta.Delete { table = "alpha"; cluster = v_s "a1"; member = 1 };
      Delta.Split
        { table = "beta"; cluster = v_s "b1"; into = v_s "b2"; members = [ 0; 2 ] };
      Delta.Merge { table = "beta"; from_ = v_s "b1"; into = v_s "b2" };
      Delta.Reassign
        { table = "alpha"; cluster = v_s "a1"; weights = [| 0.1; 0.9 |] };
      Delta.Reassign
        { table = "alpha"; cluster = v_s "a1"; weights = [| 2.0; 14.0 |] };
    ]
  in
  let back = Delta.of_rows (Delta.to_rows batch) in
  Alcotest.(check int) "length preserved" (List.length batch) (List.length back);
  List.iter2
    (fun a b ->
      if a <> b then
        Alcotest.failf "record did not round-trip: %s became %s"
          (Delta.op_to_string a) (Delta.op_to_string b))
    batch back

(* off-grid floats must replay to the same bits: %.17g is lossless *)
let test_roundtrip_float_bits () =
  let w = 1.0 /. 3.0 in
  let batch =
    [ Delta.Reassign { table = "t"; cluster = v_s "c"; weights = [| w; 1.0 -. w |] } ]
  in
  match Delta.of_rows (Delta.to_rows batch) with
  | [ Delta.Reassign { weights; _ } ] ->
    Alcotest.(check bool) "weight bits identical" true
      (Int64.equal (Int64.bits_of_float weights.(0)) (Int64.bits_of_float w))
  | _ -> Alcotest.fail "shape changed in round-trip"

let test_of_rows_rejects_garbage () =
  List.iter
    (fun rows ->
      match Delta.of_rows rows with
      | _ -> Alcotest.failf "expected Delta.Invalid"
      | exception Delta.Invalid _ -> ())
    [
      [ [ "bogus"; "t" ] ];
      [ [ "delete"; "t"; "c" ] ];
      [ [ "delete"; "t"; "c"; "notanint" ] ];
      [ [ "reassign"; "t"; "c"; "0.5"; "x" ] ];
      [ [] ];
    ]

(* ---- store v3: chains, compaction, retention ---- *)

let batch1 =
  [
    Delta.Reassign { table = "alpha"; cluster = v_s "a1"; weights = [| 0.25; 0.75 |] };
  ]

let batch2 =
  [
    Delta.Insert { table = "beta"; row = [| v_s "b2"; v_i 5; v_f 1.0 |] };
    Delta.Delete { table = "alpha"; cluster = v_s "a2"; member = 0 };
  ]

let test_commit_load_chain () =
  Testutil.with_temp_dir (fun dir ->
      let db0 = base () in
      Store.save dir db0;
      let g1 = Store.commit_delta dir batch1 in
      Alcotest.(check int) "first delta generation" 2 g1;
      Alcotest.(check int) "chain length 1" 1 (Store.delta_chain_length dir);
      let g2 = Store.commit_delta dir batch2 in
      Alcotest.(check int) "second delta generation" 3 g2;
      Alcotest.(check int) "chain length 2" 2 (Store.delta_chain_length dir);
      Alcotest.(check bool) "journal bytes accounted" true
        (Store.journal_bytes dir > 0);
      let expected =
        (Delta.apply (Delta.apply db0 batch1).Delta.db batch2).Delta.db
      in
      let loaded = Store.load dir in
      Alcotest.(check bool) "load replays the chain" true
        (Testutil.db_fingerprint loaded = Testutil.db_fingerprint expected))

let test_save_compacts_chain () =
  Testutil.with_temp_dir (fun dir ->
      let db0 = base () in
      Store.save dir db0;
      ignore (Store.commit_delta dir batch1);
      ignore (Store.commit_delta dir batch2);
      let current = Store.load dir in
      Store.save dir current;
      Alcotest.(check int) "chain collapsed" 0 (Store.delta_chain_length dir);
      Alcotest.(check int) "journal bytes zero for snapshot chain" 0
        (Store.journal_bytes dir);
      let loaded = Store.load dir in
      Alcotest.(check bool) "snapshot equals the replayed chain" true
        (Testutil.db_fingerprint loaded = Testutil.db_fingerprint current))

let test_commit_delta_requires_snapshot () =
  Testutil.with_temp_dir (fun dir ->
      match Store.commit_delta dir batch1 with
      | _ -> Alcotest.fail "commit_delta without a snapshot must fail"
      | exception Sys_error _ -> ())

let test_commit_delta_rejects_empty () =
  Testutil.with_temp_dir (fun dir ->
      Store.save dir (base ());
      match Store.commit_delta dir [] with
      | _ -> Alcotest.fail "empty batch must be rejected"
      | exception Invalid_argument _ -> ())

let test_corrupt_delta_falls_back () =
  Testutil.with_temp_dir (fun dir ->
      let db0 = base () in
      Store.save dir db0;
      ignore (Store.commit_delta dir batch1);
      (* flip a byte in the delta record: load must fall back to the
         base snapshot, not replay garbage *)
      let path = Filename.concat dir "delta.g2.csv" in
      let contents = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc contents;
          Out_channel.output_string oc "tampered\n");
      let db, warnings = Store.load_verbose dir in
      Alcotest.(check bool) "fell back to the base snapshot" true
        (Testutil.db_fingerprint db = Testutil.db_fingerprint db0);
      Alcotest.(check bool) "fallback reported" true (warnings <> []);
      (* the integrity report names the corrupt generation *)
      let checks = Store.check_generations dir in
      let bad =
        List.filter
          (fun (c : Store.check) -> Result.is_error c.check_result)
          checks
      in
      Alcotest.(check int) "one corrupt generation" 1 (List.length bad);
      Alcotest.(check int) "it is the delta" 2
        (List.hd bad).Store.check_generation)

let test_check_generations_report () =
  Testutil.with_temp_dir (fun dir ->
      Store.save dir (base ());
      ignore (Store.commit_delta dir batch1);
      let checks = Store.check_generations dir in
      Alcotest.(check int) "two generations" 2 (List.length checks);
      (match checks with
      | [ d; s ] ->
        Alcotest.(check int) "newest first" 2 d.Store.check_generation;
        Alcotest.(check bool) "delta kind" true (d.Store.check_kind = `Delta);
        Alcotest.(check bool) "snapshot kind" true
          (s.Store.check_kind = `Snapshot);
        Alcotest.(check bool) "both in chain" true
          (d.Store.check_in_chain && s.Store.check_in_chain);
        List.iter
          (fun (c : Store.check) ->
            Alcotest.(check bool) "intact" true (Result.is_ok c.check_result))
          checks
      | _ -> Alcotest.fail "unexpected report shape"))

let test_recover_sweeps_uncommitted_delta () =
  Testutil.with_temp_dir (fun dir ->
      Store.save dir (base ());
      ignore (Store.commit_delta dir batch1);
      (* fabricate an in-flight generation-3 delta that never flipped
         CURRENT: recover must sweep it and leave the chain loadable *)
      Out_channel.with_open_bin (Filename.concat dir "delta.g3.csv")
        (fun oc -> Out_channel.output_string oc "delta,parent,2\n");
      Out_channel.with_open_bin (Filename.concat dir "journal.g3.csv")
        (fun oc -> Out_channel.output_string oc "file,bytes,crc32\n");
      let actions = Store.recover dir in
      Alcotest.(check bool) "something swept" true (actions <> []);
      Alcotest.(check bool) "debris gone" false
        (Sys.file_exists (Filename.concat dir "delta.g3.csv"));
      Alcotest.(check int) "still at generation 2" 2 (Store.generation dir);
      ignore (Store.load dir);
      Alcotest.(check (list string)) "recover is idempotent" []
        (Store.recover dir))

let test_retention_keeps_fallback_chain () =
  Testutil.with_temp_dir (fun dir ->
      let db0 = base () in
      Store.save dir db0;
      ignore (Store.commit_delta dir batch1);
      ignore (Store.commit_delta dir batch2);
      let current = Store.load dir in
      (* compacting save: generation 4; the fallback chain is 1..3 and
         must all be retained, nothing swept *)
      Store.save dir current;
      Alcotest.(check int) "compacted generation" 4 (Store.generation dir);
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " retained") true
            (Sys.file_exists (Filename.concat dir f)))
        [ "journal.g1.csv"; "delta.g2.csv"; "delta.g3.csv"; "journal.g4.csv" ];
      Alcotest.(check (list string)) "nothing to recover" []
        (Store.recover dir);
      (* one more snapshot: generation 5's fallback is generation 4, a
         snapshot, so the whole old chain is now sweepable *)
      Store.save dir (Store.load dir);
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " swept") false
            (Sys.file_exists (Filename.concat dir f)))
        [ "journal.g1.csv"; "delta.g2.csv"; "delta.g3.csv" ])

(* ---- exact floats: a snapshot reloads bit for bit ---- *)

(* arbitrary finite floats, plus the shapes that trip a lossy renderer:
   integral floats past 1e15 (which [%.17g] prints as bare digits),
   -0.0, subnormals and the extremes *)
let finite_float_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun f -> if Float.is_finite f then f else 0.1) float);
        (2, map (fun k -> Float.of_int k *. 1e15) (int_range (-9999) 9999));
        ( 1,
          oneofl
            [ -0.0; 1.0 /. 3.0; 5e-324; Float.max_float; -.Float.min_float; 123456789012345.67 ]
        );
      ])

(* clusters of two: an arbitrary payload and probabilities p, 1 - p *)
let float_db_gen =
  let open QCheck.Gen in
  let cluster i =
    let* x = finite_float_gen and* y = finite_float_gen and* p = float_bound_inclusive 1.0 in
    return
      [
        [| v_s (Printf.sprintf "c%d" i); v_f x; v_f p |];
        [| v_s (Printf.sprintf "c%d" i); v_f y; v_f (1.0 -. p) |];
      ]
  in
  let* n = int_range 1 20 in
  let* rows = flatten_l (List.init n cluster) in
  let schema = Schema.make [ ("id", Value.TString); ("x", Value.TFloat); ("prob", Value.TFloat) ] in
  return
    (db_of_tables
       [
         Dirty_db.make_table ~name:"t" ~id_attr:"id" ~prob_attr:"prob"
           (Relation.create schema (List.concat rows));
       ])

let cell_bits v =
  match v with
  | Value.Float f -> Printf.sprintf "F%Lx" (Int64.bits_of_float f)
  | v -> Printf.sprintf "%s:%s" (Value.ty_name (Option.get (Value.type_of v))) (Value.to_string v)

let db_bits db =
  List.map
    (fun (t : Dirty_db.table) ->
      (t.name, Array.to_list (Array.map (fun r -> Array.to_list (Array.map cell_bits r)) (Relation.rows t.relation))))
    (Dirty_db.tables db)

let prop_store_float_bits =
  QCheck.Test.make ~count:200 ~name:"load (save db) keeps every float's bits"
    (QCheck.make ~print:Fuzz.Dbgen.db_to_string float_db_gen)
    (fun db ->
      Testutil.with_temp_dir (fun dir ->
          Store.save dir db;
          db_bits (Store.load dir) = db_bits db))

let () =
  Alcotest.run "delta"
    [
      ( "apply",
        [
          Alcotest.test_case "insert into an existing cluster" `Quick
            test_insert_existing_cluster;
          Alcotest.test_case "insert starting a new cluster" `Quick
            test_insert_new_cluster;
          Alcotest.test_case "delete renormalizes survivors" `Quick
            test_delete_member;
          Alcotest.test_case "deleting the last tuple removes the cluster"
            `Quick test_delete_last_tuple_removes_cluster;
          Alcotest.test_case "split renormalizes both sides" `Quick test_split;
          Alcotest.test_case "merge relabels and renormalizes" `Quick
            test_merge;
          Alcotest.test_case "reassign with sum-1 weights is bit-exact" `Quick
            test_reassign_exact_bits;
          Alcotest.test_case "apply never mutates its input" `Quick
            test_apply_is_functional;
        ] );
      ("validation", invalid_cases);
      ( "records",
        [
          Alcotest.test_case "batch round-trips through CSV rows" `Quick
            test_roundtrip;
          Alcotest.test_case "off-grid floats keep their bits" `Quick
            test_roundtrip_float_bits;
          Alcotest.test_case "garbage rows are rejected" `Quick
            test_of_rows_rejects_garbage;
        ] );
      ( "store",
        [
          Alcotest.test_case "commit and replay a delta chain" `Quick
            test_commit_load_chain;
          Alcotest.test_case "save compacts the chain" `Quick
            test_save_compacts_chain;
          Alcotest.test_case "commit_delta needs a committed snapshot" `Quick
            test_commit_delta_requires_snapshot;
          Alcotest.test_case "empty batches are rejected" `Quick
            test_commit_delta_rejects_empty;
          Alcotest.test_case "corrupt delta falls back to its base" `Quick
            test_corrupt_delta_falls_back;
          Alcotest.test_case "check_generations reports every generation"
            `Quick test_check_generations_report;
          Alcotest.test_case "recover sweeps an uncommitted delta" `Quick
            test_recover_sweeps_uncommitted_delta;
          QCheck_alcotest.to_alcotest ~long:false prop_store_float_bits;
          Alcotest.test_case "retention keeps the fallback chain" `Quick
            test_retention_keeps_fallback_chain;
        ] );
    ]
