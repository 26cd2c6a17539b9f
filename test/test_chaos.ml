(* Chaos harness: deterministic fault injection.

   The headline property: for EVERY operation in a [Store.save] trace,
   crashing exactly there and reloading yields a database that is
   byte-for-byte the old snapshot or the new one — never a mix — and
   per-cluster probabilities still sum to 1.  Exercised exhaustively
   over a fixed pair of databases and probabilistically over random
   databases and crash points, plus a randomized multi-fault schedule
   driven by CONQUER_FAULT_SEED.

   Also here: the retry/backoff laws (injected clock, satellite of the
   fault work) and query cancellation deadlines. *)

open Dirty

let v_i i = Value.Int i

(* ---- databases with 1/16-grain probabilities ----

   Sixteenths are exactly representable as floats and survive the CSV
   round-trip bit-for-bit, so "old or new, never a mix" can compare
   rendered values exactly and cluster sums come back to exactly 1.
   The generators live in [Fuzz.Dbgen] (store family), shared with the
   differential fuzzing harness so both suites fuzz the same space. *)

let table_of_clusters = Fuzz.Dbgen.store_table_of_clusters
let db_of_tables = Fuzz.Dbgen.db_of_tables

let fixed_old =
  db_of_tables
    [
      table_of_clusters "alpha"
        [ ("a1", [ (1, 10); (2, 6) ]); ("a2", [ (3, 16) ]) ];
      table_of_clusters "beta" [ ("b1", [ (7, 8); (8, 8) ]) ];
    ]

let fixed_new =
  db_of_tables
    [
      table_of_clusters "alpha" [ ("a1", [ (1, 16) ]) ];
      table_of_clusters "beta"
        [ ("b1", [ (7, 4); (9, 12) ]); ("b2", [ (5, 16) ]) ];
      table_of_clusters "gamma" [ ("g1", [ (0, 16) ]) ];
    ]

(* ---- snapshot comparison ---- *)

let db_fingerprint db =
  List.map
    (fun (t : Dirty_db.table) ->
      ( t.name,
        t.id_attr,
        t.prob_attr,
        Schema.names (Relation.schema t.relation),
        List.sort compare
          (List.map
             (fun row -> Array.to_list (Array.map Value.to_string row))
             (Array.to_list (Relation.rows t.relation))) ))
    (Dirty_db.tables db)

let db_equal a b = db_fingerprint a = db_fingerprint b

let cluster_sums_ok db =
  List.for_all
    (fun (t : Dirty_db.table) ->
      let schema = Relation.schema t.relation in
      let idi = Schema.index_of schema t.id_attr in
      let pi = Schema.index_of schema t.prob_attr in
      let sums = Hashtbl.create 8 in
      Relation.iter
        (fun row ->
          let key = Value.to_string row.(idi) in
          let p = Option.value (Value.to_float row.(pi)) ~default:nan in
          Hashtbl.replace sums key
            (p +. Option.value (Hashtbl.find_opt sums key) ~default:0.0))
        t.relation;
      Hashtbl.fold
        (fun _ sum ok -> ok && Float.abs (sum -. 1.0) < 1e-9)
        sums true)
    (Dirty_db.tables db)

(* ---- the crash-at-op harness ---- *)

(* operation count of "save db_new over a store holding db_old",
   learned from a recorded dry run in a scratch directory *)
let count_save_ops db_old db_new =
  Testutil.with_temp_dir (fun dir ->
      Store.save dir db_old;
      Fault.Io.reset ~record:true ();
      Store.save dir db_new;
      let n = Fault.Io.ops () in
      Fault.Io.reset ();
      n)

(* crash at operation [k] of the save, then check the invariants:
   the reloaded db is exactly old or new, cluster sums are intact, and
   a recovery sweep does not change what loads *)
let crash_and_check ?(faults = fun k -> [ (k, Fault.Io.Crash) ]) db_old db_new k
    =
  Testutil.with_temp_dir (fun dir ->
      Store.save dir db_old;
      Fault.Io.reset ();
      Fault.Io.arm (faults k);
      (match Store.save dir db_new with () -> () | exception _ -> ());
      Fault.Io.reset ();
      let loaded = Store.load dir in
      if not (db_equal loaded db_old || db_equal loaded db_new) then
        Alcotest.failf "fault at op %d: loaded db is neither old nor new" k;
      if not (cluster_sums_ok loaded) then
        Alcotest.failf "fault at op %d: cluster probability sums broken" k;
      ignore (Store.recover dir);
      let again = Store.load dir in
      if not (db_equal again loaded) then
        Alcotest.failf "fault at op %d: recover changed the loaded snapshot" k;
      if Store.recover dir <> [] then
        Alcotest.failf "fault at op %d: recover is not idempotent" k)

let test_crash_every_op () =
  let n = count_save_ops fixed_old fixed_new in
  Alcotest.(check bool) "save has a meaningful trace" true (n > 10);
  for k = 0 to n - 1 do
    crash_and_check fixed_old fixed_new k
  done

let test_crash_every_op_first_save () =
  (* no prior snapshot: the store directory must end up empty-loading
     (legacy Sys_error) or holding exactly the new db *)
  let n =
    Testutil.with_temp_dir (fun dir ->
        Fault.Io.reset ~record:true ();
        Store.save dir fixed_new;
        let n = Fault.Io.ops () in
        Fault.Io.reset ();
        n)
  in
  for k = 0 to n - 1 do
    Testutil.with_temp_dir (fun dir ->
        Fault.Io.reset ();
        Fault.Io.arm [ (k, Fault.Io.Crash) ];
        (match Store.save dir fixed_new with
        | () -> ()
        | exception _ -> ());
        Fault.Io.reset ();
        match Store.load dir with
        | db ->
          if not (db_equal db fixed_new) then
            Alcotest.failf "crash at op %d: partial first save became visible"
              k
        | exception Sys_error _ -> ())
  done

(* ---- QCheck: random databases, random crash points ---- *)

let ( let* ) gen f = QCheck.Gen.( >>= ) gen f

let db_gen = Fuzz.Dbgen.store_db_gen

let chaos_case_gen =
  let* db_old = db_gen in
  let* db_new = db_gen in
  let* crash_point = QCheck.Gen.int_range 0 10_000 in
  QCheck.Gen.return (db_old, db_new, crash_point)

let prop_crash_recovery_atomic =
  QCheck.Test.make ~count:220
    ~name:"crash during save: reload is exactly old or new"
    (QCheck.make chaos_case_gen)
    (fun (db_old, db_new, crash_point) ->
      let n = count_save_ops db_old db_new in
      crash_and_check db_old db_new (crash_point mod n);
      true)

(* ---- write-path crash matrix: delta commit and compaction ----

   Same discipline as the save matrix: crash at EVERY I/O operation of
   a delta append+commit, reload, and require exactly the base state
   or the updated state — never a mix, never a torn replay.  The delta
   record stores weights at full precision, so the updated comparison
   target is the in-memory [Delta.apply] image. *)

let fixed_batch =
  [
    Delta.Reassign
      { table = "alpha"; cluster = Value.String "a1"; weights = [| 0.25; 0.75 |] };
    Delta.Insert
      {
        table = "beta";
        row = [| Value.String "b2"; v_i 5; Value.Float (4.0 /. 16.0) |];
      };
    Delta.Delete { table = "alpha"; cluster = Value.String "a2"; member = 0 };
  ]

let count_delta_ops db batch =
  Testutil.with_temp_dir (fun dir ->
      Store.save dir db;
      Fault.Io.reset ~record:true ();
      ignore (Store.commit_delta dir batch);
      let n = Fault.Io.ops () in
      Fault.Io.reset ();
      n)

let crash_delta_and_check ?(faults = fun k -> [ (k, Fault.Io.Crash) ]) db batch
    k =
  let updated = (Delta.apply db batch).Delta.db in
  Testutil.with_temp_dir (fun dir ->
      Store.save dir db;
      Fault.Io.reset ();
      Fault.Io.arm (faults k);
      (match Store.commit_delta dir batch with
      | (_ : int) -> ()
      | exception _ -> ());
      Fault.Io.reset ();
      let loaded = Store.load dir in
      if not (db_equal loaded db || db_equal loaded updated) then
        Alcotest.failf "delta fault at op %d: loaded db is neither base nor updated" k;
      if not (cluster_sums_ok loaded) then
        Alcotest.failf "delta fault at op %d: cluster probability sums broken" k;
      ignore (Store.recover dir);
      let again = Store.load dir in
      if not (db_equal again loaded) then
        Alcotest.failf "delta fault at op %d: recover changed the loaded snapshot" k;
      if Store.recover dir <> [] then
        Alcotest.failf "delta fault at op %d: recover is not idempotent" k)

let test_crash_every_op_delta_commit () =
  let n = count_delta_ops fixed_old fixed_batch in
  Alcotest.(check bool) "delta commit has a meaningful trace" true (n > 5);
  for k = 0 to n - 1 do
    crash_delta_and_check fixed_old fixed_batch k
  done

(* crash at every op of the compacting save over a live delta chain:
   the chain replay and the compacted snapshot describe the same
   database, so the reload must equal it at every crash point, and the
   fallback chain must survive the sweep *)
let test_crash_every_op_compaction () =
  let setup dir =
    Store.save dir fixed_old;
    ignore (Store.commit_delta dir fixed_batch);
    Store.load dir
  in
  let n =
    Testutil.with_temp_dir (fun dir ->
        let current = setup dir in
        Fault.Io.reset ~record:true ();
        Store.save dir current;
        let n = Fault.Io.ops () in
        Fault.Io.reset ();
        n)
  in
  for k = 0 to n - 1 do
    Testutil.with_temp_dir (fun dir ->
        let current = setup dir in
        Fault.Io.reset ();
        Fault.Io.arm [ (k, Fault.Io.Crash) ];
        (match Store.save dir current with () -> () | exception _ -> ());
        Fault.Io.reset ();
        let loaded = Store.load dir in
        if not (db_equal loaded current) then
          Alcotest.failf
            "compaction fault at op %d: loaded db diverged from the chain" k;
        ignore (Store.recover dir);
        if not (db_equal (Store.load dir) current) then
          Alcotest.failf
            "compaction fault at op %d: recover broke the loadable state" k)
  done

(* random databases, random grid batches, random crash points *)
let delta_chaos_case_gen =
  let* db = db_gen in
  let* batch, _ = Fuzz.Updategen.batch_gen db ~len:2 in
  let* crash_point = QCheck.Gen.int_range 0 10_000 in
  QCheck.Gen.return (db, batch, crash_point)

let prop_crash_delta_commit_atomic =
  QCheck.Test.make ~count:120
    ~name:"crash during delta commit: reload is exactly base or updated"
    (QCheck.make delta_chaos_case_gen)
    (fun (db, batch, crash_point) ->
      QCheck.assume (batch <> []);
      let n = count_delta_ops db batch in
      crash_delta_and_check db batch (crash_point mod n);
      true)

let test_randomized_schedule_delta () =
  let seed =
    match Fault.Io.seed_from_env () with Some s -> s | None -> 1337
  in
  Printf.printf "delta chaos schedule seed: CONQUER_FAULT_SEED=%d\n%!" seed;
  let n = count_delta_ops fixed_old fixed_batch in
  for round = 0 to 19 do
    crash_delta_and_check
      ~faults:(fun _ -> Fault.Io.random_schedule ~seed:(seed + round) ~ops:n)
      fixed_old fixed_batch round
  done

(* ---- randomized multi-fault schedules (CONQUER_FAULT_SEED) ---- *)

let test_randomized_schedule () =
  let seed =
    match Fault.Io.seed_from_env () with Some s -> s | None -> 421
  in
  (* log the seed so a CI failure is reproducible *)
  Printf.printf "chaos schedule seed: CONQUER_FAULT_SEED=%d\n%!" seed;
  let n = count_save_ops fixed_old fixed_new in
  for round = 0 to 19 do
    crash_and_check
      ~faults:(fun _ ->
        Fault.Io.random_schedule ~seed:(seed + round) ~ops:n)
      fixed_old fixed_new round
  done

(* ---- retry/backoff laws (injected clock) ---- *)

let transient_error () =
  Fault.Io.Io_error
    { op = Fault.Io.Write; path = "x"; msg = "injected"; transient = true }

let retry_case_gen =
  let* attempts = QCheck.Gen.int_range 1 6 in
  let* failures = QCheck.Gen.int_range 0 (attempts - 1) in
  let* base_ms = QCheck.Gen.int_range 1 100 in
  let* cap_ms = QCheck.Gen.int_range 1 400 in
  QCheck.Gen.return (attempts, failures, base_ms, cap_ms)

let prop_retry_backoff_schedule =
  QCheck.Test.make ~count:200
    ~name:"retry: attempt count and backoff sequence are exactly as scheduled"
    (QCheck.make retry_case_gen)
    (fun (attempts, failures, base_ms, cap_ms) ->
      let policy =
        {
          Fault.Retry.attempts;
          base_backoff = float_of_int base_ms /. 1000.0;
          max_backoff = float_of_int cap_ms /. 1000.0;
          jitter = 0.0 (* exact-sequence assertions need no jitter *);
        }
      in
      let calls = ref 0 in
      let sleeps = ref [] in
      let result =
        Fault.Retry.with_retry ~policy
          ~sleep:(fun s -> sleeps := s :: !sleeps)
          (fun () ->
            incr calls;
            if !calls <= failures then raise (transient_error ());
            !calls)
      in
      let expected_sleeps =
        List.init failures (fun i ->
            Float.min policy.max_backoff
              (policy.base_backoff *. (2.0 ** float_of_int i)))
      in
      result = failures + 1
      && !calls = failures + 1
      && List.rev !sleeps = expected_sleeps)

let prop_retry_gives_up =
  QCheck.Test.make ~count:100
    ~name:"retry: exhausted attempts give up after the scheduled sleeps"
    (QCheck.make (QCheck.Gen.int_range 1 6))
    (fun attempts ->
      let policy =
        {
          Fault.Retry.attempts;
          base_backoff = 0.01;
          max_backoff = 0.04;
          jitter = 0.0;
        }
      in
      let calls = ref 0 in
      let sleeps = ref 0 in
      match
        Fault.Retry.with_retry ~policy
          ~sleep:(fun _ -> incr sleeps)
          (fun () ->
            incr calls;
            raise (transient_error ()))
      with
      | _ -> false
      | exception Fault.Retry.Gave_up { attempts = a; _ } ->
        attempts > 1 && a = attempts && !calls = attempts
        && !sleeps = attempts - 1
      | exception Fault.Io.Io_error _ ->
        (* a single-attempt policy re-raises the original error *)
        attempts = 1 && !calls = 1 && !sleeps = 0)

(* jittered delays: for any jitter factor and any RNG draw, the sleep
   stays within [0, cap] and never exceeds the deterministic ceiling
   for that attempt *)
let prop_retry_jitter_within_cap =
  let gen =
    let* attempts = QCheck.Gen.int_range 2 6 in
    let* base_ms = QCheck.Gen.int_range 1 100 in
    let* cap_ms = QCheck.Gen.int_range 1 400 in
    let* jitter = QCheck.Gen.float_bound_inclusive 1.0 in
    let* draw = QCheck.Gen.float_bound_inclusive 1.0 in
    QCheck.Gen.return (attempts, base_ms, cap_ms, jitter, draw)
  in
  QCheck.Test.make ~count:300
    ~name:"retry: jittered delays stay within [0, cap] and under the ceiling"
    (QCheck.make gen)
    (fun (attempts, base_ms, cap_ms, jitter, draw) ->
      let policy =
        {
          Fault.Retry.attempts;
          base_backoff = float_of_int base_ms /. 1000.0;
          max_backoff = float_of_int cap_ms /. 1000.0;
          jitter;
        }
      in
      List.for_all
        (fun i ->
          let d = Fault.Retry.jittered_backoff ~rng:(fun () -> draw) policy i in
          let ceiling = Fault.Retry.backoff policy i in
          0.0 <= d && d <= policy.max_backoff +. 1e-12 && d <= ceiling +. 1e-12)
        (List.init (attempts - 1) Fun.id))

(* with jitter off, the jittered delay is exactly the deterministic
   schedule, whatever the RNG says *)
let prop_retry_no_jitter_is_deterministic =
  QCheck.Test.make ~count:100
    ~name:"retry: jitter=0 reproduces the deterministic backoff exactly"
    (QCheck.make (QCheck.Gen.float_bound_inclusive 1.0))
    (fun draw ->
      let policy = { Fault.Retry.default_policy with jitter = 0.0 } in
      List.for_all
        (fun i ->
          Fault.Retry.jittered_backoff ~rng:(fun () -> draw) policy i
          = Fault.Retry.backoff policy i)
        [ 0; 1; 2; 3; 7 ])

(* ---- cancellation deadlines ---- *)

(* a deadline that has already passed (zero, negative, or at/below the
   2ms watchdog tick) must trip the token before the wrapped function
   runs — not one watchdog tick later *)
let test_expired_deadline_trips_before_run () =
  List.iter
    (fun seconds ->
      let tok = Engine.Cancel.create () in
      let observed_tripped = ref false in
      let ran = ref false in
      (try
         Engine.Cancel.with_deadline ~seconds tok (fun () ->
             ran := true;
             observed_tripped := Engine.Cancel.cancelled tok;
             Engine.Cancel.check tok)
       with Engine.Cancel.Cancelled _ -> ());
      Alcotest.(check bool)
        (Printf.sprintf "wrapped function still runs (deadline %gs)" seconds)
        true !ran;
      Alcotest.(check bool)
        (Printf.sprintf "token tripped before the function ran (deadline %gs)"
           seconds)
        true !observed_tripped;
      Alcotest.(check bool)
        (Printf.sprintf "token still tripped after (deadline %gs)" seconds)
        true
        (Engine.Cancel.cancelled tok))
    [ 0.0; -1.0; 0.001; 0.002 ]

let test_parallel_cancel_within_deadline () =
  let tok = Engine.Cancel.create () in
  let t0 = Unix.gettimeofday () in
  (match
     Engine.Cancel.with_deadline ~seconds:0.1 tok (fun () ->
         (* 64 x 20ms on 4 domains = ~320ms of work, cancelled at 100ms *)
         Engine.Parallel.run ~cancel:tok ~jobs:4 64 (fun _ ->
             Unix.sleepf 0.02))
   with
  | () -> Alcotest.fail "parallel region outran its deadline uncancelled"
  | exception Engine.Cancel.Cancelled _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "cancelled within 2x deadline (%.0fms)" (elapsed *. 1000.))
    true (elapsed < 0.2)

(* a database whose cross product is far too large to finish within
   the deadline, so cancellation must interrupt it mid-operator *)
let big_cross_db () =
  let engine = Engine.Database.create () in
  let schema = Schema.make [ ("k", Value.TInt); ("v", Value.TInt) ] in
  let rel n =
    Relation.create schema (List.init n (fun i -> [| v_i i; v_i (i * 7) |]))
  in
  Engine.Database.add_relation engine ~name:"a" (rel 3000);
  Engine.Database.add_relation engine ~name:"b" (rel 3000);
  engine

let cross_query =
  Sql.Parser.parse_query "select a.v, b.v from a, b where a.v + b.v > -1"

let cancel_config seconds =
  { Engine.Planner.default_config with max_elapsed = Some seconds }

(* a budgeted query whose time budget is already spent returns an
   empty cancelled partial, through the normal degrading path *)
let test_expired_deadline_query_degrades () =
  let engine = big_cross_db () in
  let rel, { Engine.Database.truncated; cancelled } =
    Engine.Database.query_ast_within ~config:(cancel_config 0.0) engine
      cross_query
  in
  Alcotest.(check bool) "cancelled" true cancelled;
  Alcotest.(check bool) "not truncated" false truncated;
  Alcotest.(check int) "no rows produced" 0 (Relation.cardinality rel)

let test_query_cancelled_partial_within_deadline () =
  let engine = big_cross_db () in
  let deadline = 0.3 in
  let t0 = Unix.gettimeofday () in
  let rel, { Engine.Database.truncated; cancelled } =
    Engine.Database.query_ast_within
      ~config:(cancel_config deadline)
      engine cross_query
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "cancelled" true cancelled;
  Alcotest.(check bool) "not row-truncated" false truncated;
  Alcotest.(check bool) "partial, not the full cross product" true
    (Relation.cardinality rel < 3000 * 3000);
  Alcotest.(check bool)
    (Printf.sprintf "returned within 2x deadline (%.0fms)" (elapsed *. 1000.))
    true
    (elapsed < 2.0 *. deadline)

(* The deadline falls late in the plan: inside the streamed cross
   product, filter and projection over its 2.4M rows.  (The test's
   name predates streaming, when the filter and projection ran as
   chunked parallel regions.)  Wherever the deadline falls, the query
   must stop promptly and answer no rows, with the output columns a
   stop before the first operator gives. *)
let test_query_cancelled_in_chunked_region () =
  let engine = Engine.Database.create () in
  let schema = Schema.make [ ("k", Value.TInt); ("v", Value.TInt) ] in
  let rel n =
    Relation.create schema (List.init n (fun i -> [| v_i i; v_i (i * 7) |]))
  in
  Engine.Database.add_relation engine ~name:"a" (rel 3000);
  Engine.Database.add_relation engine ~name:"b" (rel 800);
  let deadline = 0.25 in
  let run () =
    Engine.Database.query_ast_within
      ~config:(cancel_config deadline)
      engine cross_query
  in
  (* while the heap still grows, the cross product alone can outlast
     the deadline; the second run is the one measured *)
  ignore (run ());
  let t0 = Unix.gettimeofday () in
  let rel, { Engine.Database.truncated; cancelled } = run () in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "cancelled" true cancelled;
  Alcotest.(check bool) "not row-truncated" false truncated;
  Alcotest.(check int) "a cancelled answer has no rows" 0 (Relation.cardinality rel);
  let expired, _ =
    Engine.Database.query_ast_within ~config:(cancel_config 0.0) engine
      cross_query
  in
  Alcotest.(check (list string))
    "output columns as when stopped before the first operator"
    (Schema.names (Relation.schema expired))
    (Schema.names (Relation.schema rel));
  Alcotest.(check bool)
    (Printf.sprintf "returned within 2x deadline (%.0fms)" (elapsed *. 1000.))
    true
    (elapsed < 2.0 *. deadline)

(* A Filter -> Aggregate pipeline over one scan, with no join, whose
   deadline lands inside the filter's loop.  A filter that passes no
   row charges the budget nothing, so only [Exec.drain]'s poll can
   stop it; one that passes every row is stopped by its charges.  Each
   row's LIKE test walks a 2000-character string, so the whole scan
   would take seconds. *)
let test_filter_aggregate_deadline () =
  let engine = Engine.Database.create () in
  let row = [| v_i 1; Value.String (String.make 2000 'a') |] in
  Engine.Database.add_relation engine ~name:"t"
    (Relation.of_array
       (Schema.make [ ("k", Value.TInt); ("s", Value.TString) ])
       (Array.make 1_000_000 row));
  let deadline = 0.1 in
  List.iter
    (fun pred ->
      let q =
        Sql.Parser.parse_query
          ("select k, count(*) from t where " ^ pred ^ " group by k")
      in
      let t0 = Unix.gettimeofday () in
      let rel, { Engine.Database.truncated; cancelled } =
        Engine.Database.query_ast_within ~config:(cancel_config deadline) engine q
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) (pred ^ ": cancelled") true cancelled;
      Alcotest.(check bool) (pred ^ ": not row-truncated") false truncated;
      Alcotest.(check int) (pred ^ ": no rows") 0 (Relation.cardinality rel);
      Alcotest.(check bool)
        (Printf.sprintf "%s: returned within 2x deadline (%.0fms)" pred
           (elapsed *. 1000.))
        true
        (elapsed < 2.0 *. deadline))
    [ "s like '%a%a%a%b'"; "s not like '%a%a%a%b'" ]

let test_query_cancelled_raise_within_deadline () =
  let engine = big_cross_db () in
  let deadline = 0.3 in
  let t0 = Unix.gettimeofday () in
  (match
     Engine.Database.query_ast ~config:(cancel_config deadline) engine
       cross_query
   with
  | _ -> Alcotest.fail "cross product outran its deadline uncancelled"
  | exception Engine.Cancel.Cancelled _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "raised within 2x deadline (%.0fms)" (elapsed *. 1000.))
    true
    (elapsed < 2.0 *. deadline)

let test_cancellation_counter () =
  Telemetry.Control.with_enabled @@ fun () ->
  let before =
    Telemetry.Metrics.count
      (Telemetry.Metrics.counter "engine.cancel.cancellations")
  in
  let tok = Engine.Cancel.create () in
  Engine.Cancel.cancel ~reason:"test" tok;
  Engine.Cancel.cancel ~reason:"again" tok;
  (* second cancel of the same token is a no-op *)
  let after =
    Telemetry.Metrics.count
      (Telemetry.Metrics.counter "engine.cancel.cancellations")
  in
  Alcotest.(check int) "one cancellation counted" (before + 1) after;
  Alcotest.(check (option string)) "first reason wins" (Some "test")
    (Engine.Cancel.reason tok)

let () =
  let qcheck = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "chaos"
    [
      ( "store-crash",
        [
          Alcotest.test_case "crash at every op of a re-save" `Quick
            test_crash_every_op;
          Alcotest.test_case "crash at every op of a first save" `Quick
            test_crash_every_op_first_save;
          qcheck prop_crash_recovery_atomic;
          Alcotest.test_case "randomized fault schedules" `Quick
            test_randomized_schedule;
        ] );
      ( "write-path-crash",
        [
          Alcotest.test_case "crash at every op of a delta commit" `Quick
            test_crash_every_op_delta_commit;
          Alcotest.test_case "crash at every op of a compacting save" `Quick
            test_crash_every_op_compaction;
          qcheck prop_crash_delta_commit_atomic;
          Alcotest.test_case "randomized fault schedules over delta commits"
            `Quick test_randomized_schedule_delta;
        ] );
      ( "retry",
        [
          qcheck prop_retry_backoff_schedule;
          qcheck prop_retry_gives_up;
          qcheck prop_retry_jitter_within_cap;
          qcheck prop_retry_no_jitter_is_deterministic;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "parallel region cancelled within 2x deadline"
            `Quick test_parallel_cancel_within_deadline;
          Alcotest.test_case "expired deadline trips before the function runs"
            `Quick test_expired_deadline_trips_before_run;
          Alcotest.test_case "expired deadline degrades to empty partial"
            `Quick test_expired_deadline_query_degrades;
          Alcotest.test_case "budgeted query degrades to cancelled partial"
            `Quick test_query_cancelled_partial_within_deadline;
          Alcotest.test_case "deadline inside a chunked region" `Quick
            test_query_cancelled_in_chunked_region;
          Alcotest.test_case "filter into aggregate stops within 2x deadline"
            `Quick test_filter_aggregate_deadline;
          Alcotest.test_case "raise-mode query cancelled within 2x deadline"
            `Quick test_query_cancelled_raise_within_deadline;
          Alcotest.test_case "cancellations counter and first-reason-wins"
            `Quick test_cancellation_counter;
        ] );
    ]
