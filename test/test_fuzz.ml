(* The differential fuzzing harness as a test suite.

   The headline property: on random dirty databases and random SPJ
   queries, whenever [Rewritable.check] accepts, RewriteClean on the
   engine agrees exactly with the candidate-enumeration oracle, whose
   reference evaluator shares no code with the engine.  Around it: the oracle's own invariants, observation
   (telemetry, profiling) leaving answers bit-identical, sampler
   convergence to oracle probabilities, the SQL pretty-printer
   round-trip on generated queries, corpus round-trip and replay, and
   the shrinker actually shrinking. *)

open Dirty

let case_arb = Fuzz.Case.arbitrary ()

let total_rows db =
  List.fold_left
    (fun n (t : Dirty_db.table) -> n + Relation.cardinality t.relation)
    0 (Dirty_db.tables db)

(* ---- the differential property ---- *)

let prop_differential =
  QCheck.Test.make ~count:300
    ~name:"rewriting agrees with the oracle (just one engine leg)" case_arb
    (fun case ->
      let outcome = Fuzz.Differential.run case in
      if Fuzz.Differential.failing outcome then
        QCheck.Test.fail_report (Fuzz.Differential.to_string outcome)
      else true)

(* ---- the update differential property ----

   300 random update sequences over rewritable cases: after every
   batch, the rewritten query run from scratch on a session derived
   with [Clean.derive] agrees with the oracle.  The
   first property stays on the 1/16 probability grid; the second
   renormalizes raw weights off the grid, so every database it checks,
   the final one included, carries inexact probabilities. *)

let update_differential ~name mode =
  QCheck.Test.make ~count:300 ~name
    (Fuzz.Updategen.scenario_arbitrary ~mode ())
    (fun (case, batches) ->
      let outcome = Fuzz.Differential.run_updates case batches in
      if Fuzz.Differential.update_failing outcome then
        QCheck.Test.fail_report (Fuzz.Differential.update_to_string outcome)
      else true)

let prop_update_differential =
  update_differential Fuzz.Updategen.Grid
    ~name:
      "after every update batch, from-scratch answers agree with the oracle"

let prop_update_differential_off_grid =
  update_differential Fuzz.Updategen.Free
    ~name:
      "off-grid: after every update batch, from-scratch answers agree with \
       the oracle"

(* ---- derived sessions ----

   [Clean.derive] reuses identifier indexes and statistics columns
   whose cells an update left physically unchanged.  Over random
   update sequences of all five op kinds, the derived session must be
   indistinguishable from [Clean.create] on the same database: equal
   statistics, equal index lookups for every identifier, and bitwise
   equal answers in the same row order.  The predecessor it was built
   from must keep answering exactly as before. *)

let op_kind = function
  | Delta.Insert _ -> "insert"
  | Delta.Delete _ -> "delete"
  | Delta.Split _ -> "split"
  | Delta.Merge _ -> "merge"
  | Delta.Reassign _ -> "reassign"

(* every identifier either database holds: dropped ones must miss in both *)
let identifiers (t : Dirty_db.table) prev =
  Cluster.id_values t.clustering
  @ (match Dirty_db.find_table_opt prev t.name with
    | Some p -> Cluster.id_values p.clustering
    | None -> [])

let same_catalogs ~prev derived fresh =
  let de = Conquer.Clean.engine derived and fe = Conquer.Clean.engine fresh in
  List.for_all
    (fun (t : Dirty_db.table) ->
      compare (Engine.Database.stats de t.name) (Engine.Database.stats fe t.name) = 0
      &&
      match
        ( Engine.Database.index de ~table:t.name ~attr:t.id_attr,
          Engine.Database.index fe ~table:t.name ~attr:t.id_attr )
      with
      | Some di, Some fi ->
        Engine.Index.cardinality di = Engine.Index.cardinality fi
        && Engine.Index.distinct_keys di = Engine.Index.distinct_keys fi
        && List.for_all
             (fun id -> Engine.Index.lookup di id = Engine.Index.lookup fi id)
             (identifiers t prev)
      | _ -> false)
    (Dirty_db.tables (Conquer.Clean.dirty_db fresh))

let kinds_seen = Hashtbl.create 5

let prop_derived_session =
  QCheck.Test.make ~count:200
    ~name:"a derived session equals a fresh one; its predecessor is unchanged"
    (Fuzz.Updategen.scenario_arbitrary ())
    (fun (case, batches) ->
      let sql = Fuzz.Case.sql case in
      let answers s = Conquer.Clean.answers s sql in
      let rec go prev = function
        | [] -> true
        | batch :: rest ->
          List.iter (fun op -> Hashtbl.replace kinds_seen (op_kind op) ()) batch;
          let db = (Delta.apply (Conquer.Clean.dirty_db prev) batch).Delta.db in
          let before = answers prev in
          let derived = Conquer.Clean.derive prev db in
          let fresh = Conquer.Clean.create db in
          if not (same_catalogs ~prev:(Conquer.Clean.dirty_db prev) derived fresh) then
            QCheck.Test.fail_report "statistics or index lookups differ from a fresh session"
          else if not (Testutil.rows_bits_equal (answers derived) (answers fresh)) then
            QCheck.Test.fail_report "derived answers differ from a fresh session's"
          else if not (Testutil.rows_bits_equal (answers prev) before) then
            QCheck.Test.fail_report "deriving changed the predecessor's answers"
          else go derived rest
      in
      go (Conquer.Clean.create case.db) batches)

let test_derived_session_property () =
  Hashtbl.reset kinds_seen;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 14 |]) prop_derived_session;
  Alcotest.(check (list string))
    "every op kind exercised"
    [ "delete"; "insert"; "merge"; "reassign"; "split" ]
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) kinds_seen []))

(* ---- observation does not change answers ----

   Telemetry and profiling only watch node boundaries.  Over rewritten
   generated queries, answers with telemetry on, and
   under the span collector that [conquer profile] runs, are bitwise
   those of a plain run with telemetry off, row order included. *)

let prop_observation_invisible =
  QCheck.Test.make ~count:150
    ~name:"telemetry and profiling leave answers bit-identical"
    (QCheck.make ~print:Fuzz.Case.print (Fuzz.Updategen.rewritable_case_gen ()))
    (fun (case : Fuzz.Case.t) ->
      let env = Conquer.Dirty_schema.of_dirty_db case.db in
      let engine = Conquer.Clean.engine (Conquer.Clean.create case.db) in
      let plan =
        Engine.Database.plan engine (Conquer.Rewrite.rewrite_exn env case.query)
      in
      let catalog =
        {
          Engine.Exec.relation = Engine.Database.relation engine;
          index = (fun table attr -> Engine.Database.index engine ~table ~attr);
        }
      in
      let plain () = Engine.Exec.run catalog plan in
      let expected = Telemetry.Control.with_disabled plain in
      List.for_all
        (fun (label, answers) ->
          Testutil.rows_bits_equal expected answers
          || QCheck.Test.fail_reportf "%s differs from a run with telemetry off" label)
        [
          ("telemetry on", Telemetry.Control.with_enabled plain);
          ("profiled", fst (Telemetry.Span.collecting plain));
        ])

(* ---- oracle invariants ---- *)

let prop_oracle_mass =
  QCheck.Test.make ~count:150
    ~name:"oracle probabilities in (0,1], one row per answer tuple" case_arb
    (fun case ->
      match Conquer.Oracle.answer_probabilities case.db case.query with
      | exception Conquer.Oracle.Too_many_candidates _ -> QCheck.assume_fail ()
      | exception _ ->
        (* a query the engine cannot run (e.g. planner limits) is not
           an oracle defect *)
        QCheck.assume_fail ()
      | answers ->
        let seen = Hashtbl.create 16 in
        List.for_all
          (fun (row, p) ->
            let key =
              String.concat "\x00"
                (Array.to_list (Array.map Value.to_string row))
            in
            let fresh = not (Hashtbl.mem seen key) in
            Hashtbl.replace seen key ();
            fresh && p > 0.0 && p <= 1.0 +. 1e-9)
          answers)

(* ---- sampler convergence ---- *)

let prop_sampler_converges =
  QCheck.Test.make ~count:25
    ~name:"sampler estimates converge to oracle probabilities" case_arb
    (fun case ->
      match Conquer.Oracle.answer_probabilities case.db case.query with
      | exception _ -> QCheck.assume_fail ()
      | oracle ->
        let samples = 1500 in
        let session = Conquer.Clean.create case.db in
        let estimates =
          try
            Conquer.Sampler.estimates ~seed:7 ~samples session
              (Fuzz.Case.sql case)
          with _ -> QCheck.assume_fail ()
        in
        let find row =
          List.find_opt
            (fun (e : Conquer.Sampler.estimate) ->
              Array.length e.row = Array.length row
              && Array.for_all2 Value.equal e.row row)
            estimates
        in
        let tolerance p =
          Float.max 0.08
            (6.0 *. sqrt (p *. (1.0 -. p) /. float_of_int samples))
        in
        (* every oracle answer is estimated within tolerance (absent
           means estimated 0), and nothing is sampled that the oracle
           rules out *)
        List.for_all
          (fun (row, p) ->
            let estimate =
              match find row with Some e -> e.probability | None -> 0.0
            in
            Float.abs (estimate -. p) <= tolerance p)
          oracle
        && List.for_all
             (fun (e : Conquer.Sampler.estimate) ->
               List.exists
                 (fun (row, _) ->
                   Array.length e.row = Array.length row
                   && Array.for_all2 Value.equal e.row row)
                 oracle)
             estimates)

(* ---- SQL pretty-printer round-trip ---- *)

let prop_roundtrip =
  QCheck.Test.make ~count:500
    ~name:"Parser.parse (Pretty.to_string q) reparses to q" case_arb
    (fun case ->
      let text = Sql.Pretty.query_to_string case.query in
      match Sql.Parser.parse_query text with
      | exception Sql.Parser.Error msg ->
        QCheck.Test.fail_reportf "unparseable: %s\n%s" msg text
      | reparsed ->
        if reparsed = case.query then true
        else
          QCheck.Test.fail_reportf "round-trip changed the query:\n%s" text)

(* ---- corpus round-trip ---- *)

let prop_corpus_roundtrip =
  QCheck.Test.make ~count:50 ~name:"corpus save/load is exact" case_arb
    (fun case ->
      Testutil.with_temp_dir (fun dir ->
          Fuzz.Corpus.save ~dir ~name:"case" case;
          let loaded = Fuzz.Corpus.load ~dir ~name:"case" in
          let fingerprint db =
            List.map
              (fun (t : Dirty_db.table) ->
                ( t.name,
                  Schema.names (Relation.schema t.relation),
                  List.sort compare
                    (List.map
                       (fun row ->
                         Array.to_list (Array.map Value.to_string row))
                       (Array.to_list (Relation.rows t.relation))) ))
              (Dirty_db.tables db)
          in
          loaded.query = case.query
          && fingerprint loaded.db = fingerprint case.db))

(* ---- seed corpus replay ---- *)

(* dune runtest runs tests in _build/default/test, where the glob_files
   dep places the corpus; a manual dune exec from the repo root finds
   the source copy instead *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let test_corpus_replay () =
  let dir = corpus_dir in
  let names = Fuzz.Corpus.names dir in
  Alcotest.(check bool) "seed corpus present" true (List.length names >= 8);
  let outcomes =
    List.map
      (fun name -> (name, Fuzz.Differential.run (Fuzz.Corpus.load ~dir ~name)))
      names
  in
  List.iter
    (fun (name, outcome) ->
      if Fuzz.Differential.failing outcome then
        Alcotest.failf "corpus case %s: %s" name
          (Fuzz.Differential.to_string outcome))
    outcomes;
  (* the seed corpus straddles the class boundary *)
  let is_agree = function _, Fuzz.Differential.Agree _ -> true | _ -> false in
  let is_rejected =
    function _, Fuzz.Differential.Rejected _ -> true | _ -> false
  in
  Alcotest.(check bool) "some case is rewritable" true
    (List.exists is_agree outcomes);
  Alcotest.(check bool) "some case is rejected" true
    (List.exists is_rejected outcomes)

(* the corpus cases assert specific class membership *)
let test_corpus_classification () =
  let dir = corpus_dir in
  let check name expect_rewritable =
    let case = Fuzz.Corpus.load ~dir ~name in
    let env = Conquer.Dirty_schema.of_dirty_db case.db in
    let accepted = Result.is_ok (Conquer.Rewritable.check env case.query) in
    Alcotest.(check bool) name expect_rewritable accepted
  in
  check "single-filter" true;
  check "fk-tree" true;
  check "selfjoin" false;
  check "cycle" false;
  check "dropped-root" false;
  (* the two multi-cluster pins (named after the cluster-hash split
     they were first written against): an answer group whose
     probability sums rows joined from two t0 clusters, and a filter
     that keeps one alternative of a cluster, so its answer's SUM
     covers part of the cluster — both must stay rewritable for the
     replay above to check them against the oracle *)
  check "shard-split-group" true;
  check "shard-one-sided" true

(* ---- pinned update edge cases ----

   Deterministic witnesses for two update shapes that move answers
   between groups, run through the update differential: after each
   batch, from-scratch answers against the oracle. *)

let run_pinned_updates name batches =
  let case = Fuzz.Corpus.load ~dir:corpus_dir ~name in
  match Fuzz.Differential.run_updates case batches with
  | Fuzz.Differential.U_agree { answers; _ } -> answers
  | outcome ->
    Alcotest.failf "pinned %s: %s" name
      (Fuzz.Differential.update_to_string outcome)

(* splitting a cluster of the join root moves a member into a brand
   new answer group; the follow-up insert gives the new cluster a
   join partner so the group actually surfaces in the answers *)
let test_pin_split_across_answer_groups () =
  let batches =
    [
      [
        Delta.Split
          {
            table = "t0";
            cluster = Value.Int 0;
            into = Value.Int 5;
            members = [ 0 ];
          };
      ];
      [
        Delta.Insert
          {
            table = "t1";
            row = [| Value.Int 3; Value.Int 9; Value.Int 5; Value.Float 1.0 |];
          };
      ];
    ]
  in
  Alcotest.(check int)
    "new answer group surfaced" 4
    (run_pinned_updates "fk-tree" batches)

(* deleting the only member of t0 cluster 1 removes the cluster; the
   t1 tuple whose foreign key pointed at it dangles, and its answer
   group must vanish from the answers *)
let test_pin_delete_last_tuple_of_cluster () =
  let batches =
    [ [ Delta.Delete { table = "t0"; cluster = Value.Int 1; member = 0 } ] ]
  in
  Alcotest.(check int)
    "dangling answer group vanished" 2
    (run_pinned_updates "fk-tree" batches)

(* ---- shrinking ---- *)

let test_minimize_shrinks () =
  (* a fake bug that any non-empty database triggers: the minimizer
     must walk it down to a single-row database and a skeletal query *)
  let rand = Random.State.make [| 42 |] in
  let still_failing (c : Fuzz.Case.t) = total_rows c.db >= 1 in
  let rec find_big tries =
    let case = QCheck.Gen.generate1 ~rand (Fuzz.Case.gen ()) in
    if total_rows case.db >= 6 || tries > 200 then case else find_big (tries + 1)
  in
  let case = find_big 0 in
  let small = Fuzz.Differential.minimize still_failing case in
  Alcotest.(check bool) "still failing" true (still_failing small);
  Alcotest.(check int) "shrunk to a single row" 1 (total_rows small.db);
  Alcotest.(check bool) "query shrunk too" true
    (List.length small.query.from <= List.length case.query.from)

(* ---- refute finds planted wrong answers ---- *)

let test_refute_detects_tampering () =
  let dir = corpus_dir in
  let case = Fuzz.Corpus.load ~dir ~name:"single-filter" in
  let env = Conquer.Dirty_schema.of_dirty_db case.db in
  let rewritten = Conquer.Rewrite.rewrite_exn env case.query in
  let session = Conquer.Clean.create case.db in
  let answers =
    Engine.Database.query_ast (Conquer.Clean.engine session) rewritten
  in
  Alcotest.(check bool) "honest answers pass" true
    (Conquer.Oracle.refute case.db case.query answers = None);
  let tampered =
    Relation.map_rows (Relation.schema answers)
      (fun row ->
        let row = Array.copy row in
        let n = Array.length row in
        row.(n - 1) <-
          (match row.(n - 1) with
          | Value.Float p -> Value.Float (p /. 2.0)
          | v -> v);
        row)
      answers
  in
  match Conquer.Oracle.refute case.db case.query tampered with
  | None -> Alcotest.fail "halved probabilities not refuted"
  | Some m ->
    Alcotest.(check bool) "mismatch names the probability gap" true
      (m.oracle_prob <> None && m.actual_prob <> None)

let () =
  let to_alcotest tests =
    List.map (QCheck_alcotest.to_alcotest ~long:false) tests
  in
  Alcotest.run "fuzz"
    [
      ( "differential",
        to_alcotest
          [
            prop_differential;
            prop_update_differential;
            prop_update_differential_off_grid;
            prop_oracle_mass;
          ] );
      ("observation", to_alcotest [ prop_observation_invisible ]);
      ( "derived",
        [
          Alcotest.test_case "derived = fresh over all five op kinds" `Quick
            test_derived_session_property;
        ] );
      ("sampler", to_alcotest [ prop_sampler_converges ]);
      ("roundtrip", to_alcotest [ prop_roundtrip; prop_corpus_roundtrip ]);
      ( "corpus",
        [
          Alcotest.test_case "replay seed corpus" `Quick test_corpus_replay;
          Alcotest.test_case "class membership" `Quick
            test_corpus_classification;
          Alcotest.test_case "pin: split across answer groups" `Quick
            test_pin_split_across_answer_groups;
          Alcotest.test_case "pin: delete last tuple of a cluster" `Quick
            test_pin_delete_last_tuple_of_cluster;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "minimize reaches a one-row witness" `Quick
            test_minimize_shrinks;
          Alcotest.test_case "refute detects tampered answers" `Quick
            test_refute_detects_tampering;
        ] );
    ]
