(* The daemon under hostile conditions.

   The headline soak: a few hundred concurrent requests — fast clean
   queries, budgeted queries, short-deadline heavy queries, rude
   clients that hang up mid-query, injected store faults, and live
   re-commits bumping the generation — against one server.  The
   daemon must never crash, never return a wrong answer (every
   complete 200 is compared against [Clean.answers] recomputed
   directly from the snapshot of the generation the response claims),
   and over-deadline requests must come back as partial/408 in
   bounded time.

   Around the soak: unit tests for the FIFO cache and the circuit
   breaker (injected clock), the cache-invalidation property (a
   commit is immediately visible; no stale-generation answers), the
   shed/burst path, disconnect cancellation, both drain outcomes, and
   the serve.* metrics surface. *)

open Dirty

(* ---- fixture database ---- *)

let table_of_clusters = Fuzz.Dbgen.store_table_of_clusters
let db_of_tables = Fuzz.Dbgen.db_of_tables

(* [variant k] databases answer the fixture queries differently for
   every k, so a stale cache or session is caught by content, not
   just by the generation number *)
let variant k =
  let cluster i =
    ( Printf.sprintf "c%d" i,
      [ ((100 * k) + i, 10); ((100 * k) + i + 1, 6) ] )
  in
  db_of_tables
    [
      table_of_clusters "alpha" (List.init 24 cluster);
      table_of_clusters "beta" (List.init 6 cluster);
    ]

let fixture = variant 0

let q_alpha = "select id from alpha"
let q_beta = "select id from beta where val >= 0"
let q_proj = "select id, val from alpha"
let fast_queries = [ q_alpha; q_beta; q_proj ]

(* ~1.3M intermediate rows (run as mode=original, outside the
   rewritable class): long enough to outlive a short deadline, bounded
   enough for the suite once cancelled *)
let slow_sql =
  "select a.val from alpha a, alpha b, alpha c, beta d where a.val + b.val + \
   c.val + d.val > -1"

(* ---- expected answers, rendered the way the server renders them ---- *)

let value_json v =
  match v with
  | Value.Null -> "null"
  | Value.Bool b -> if b then "true" else "false"
  | Value.Int i -> string_of_int i
  | Value.Float f -> Telemetry.Export.json_float f
  | Value.String s -> Telemetry.Export.json_string s
  | Value.Date _ -> Telemetry.Export.json_string (Value.to_string v)

let rows_json rel =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '[';
  Array.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      Array.iteri
        (fun j v ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (value_json v))
        row;
      Buffer.add_char buf ']')
    (Relation.rows rel);
  Buffer.add_char buf ']';
  Buffer.contents buf

(* query text -> expected rows JSON, for one database snapshot *)
let expected_rows db =
  let session = Conquer.Clean.create db in
  List.map
    (fun sql -> (sql, rows_json (Conquer.Clean.answers session sql)))
    fast_queries

(* ---- response parsing (field extraction, no JSON library) ---- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let body_rows body =
  match (find_sub body "\"rows\":", find_sub body ",\"row_count\"") with
  | Some i, Some j ->
    let start = i + String.length "\"rows\":" in
    String.sub body start (j - start)
  | _ -> Alcotest.failf "no rows field in %s" body

let body_field body name =
  let tag = "\"" ^ name ^ "\":" in
  match find_sub body tag with
  | None -> Alcotest.failf "no %s field in %s" name body
  | Some i ->
    let start = i + String.length tag in
    let rec stop j =
      if j >= String.length body then j
      else match body.[j] with ',' | '}' -> j | _ -> stop (j + 1)
    in
    String.sub body start (stop start - start)

let body_generation body = int_of_string (body_field body "generation")
let body_flag body name = body_field body name = "true"

(* ---- server harness ---- *)

let base_config =
  {
    Server.Serve.default_config with
    port = 0;
    concurrency = 4;
    queue_capacity = 16;
    default_deadline = 10.0;
    drain_deadline = 10.0;
  }

(* run [f t port] against a live server over the store in [dir];
   returns f's result and the drain report from shutting the server
   down afterwards *)
let serve_store ?(config = base_config) dir f =
  let t = Server.Serve.create ~config ~dir () in
  let runner = Domain.spawn (fun () -> Server.Serve.run t) in
  let res =
    try f t (Server.Serve.port t)
    with e ->
      Server.Serve.shutdown t;
      ignore (Domain.join runner);
      Fault.Io.reset ();
      raise e
  in
  Server.Serve.shutdown t;
  let report = Domain.join runner in
  Fault.Io.reset ();
  (res, report)

(* [serve_store] over a fresh store holding [db]; [f] also gets the
   store directory *)
let with_server ?config db f =
  Testutil.with_temp_dir @@ fun dir ->
  Fault.Io.reset ();
  Store.save dir db;
  serve_store ?config dir (f dir)

type outcome = Resp of Server.Http.response | Conn_error of string

let client port ?body ?(timeout = 30.0) target =
  try Resp (Server.Http.request ~host:"127.0.0.1" ~port ?body ~timeout target)
  with
  | Server.Http.Disconnected -> Conn_error "disconnected"
  | Server.Http.Timeout -> Conn_error "timeout"
  | Unix.Unix_error (e, _, _) -> Conn_error (Unix.error_message e)

let expect_200 outcome =
  match outcome with
  | Resp { status = 200; r_body; _ } -> r_body
  | Resp { status; r_body; _ } ->
    Alcotest.failf "expected 200, got %d: %s" status r_body
  | Conn_error e -> Alcotest.failf "expected 200, got connection error: %s" e

(* a rude client: sends a request and hangs up without reading *)
let fire_and_hangup port target =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
     let req =
       Printf.sprintf "POST %s HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s" target
         (String.length slow_sql) slow_sql
     in
     ignore (Unix.write_substring fd req 0 (String.length req))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- unit: cache ---- *)

let test_cache_fifo () =
  let open Server in
  let c = Cache.create ~capacity:3 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  Cache.add c "d" 4;
  Alcotest.(check (option int)) "oldest evicted" None (Cache.find c "a");
  Alcotest.(check (option int)) "newest kept" (Some 4) (Cache.find c "d");
  Alcotest.(check int) "bounded" 3 (Cache.length c);
  Cache.add c "b" 20;
  Alcotest.(check (option int)) "replace in place" (Some 20) (Cache.find c "b");
  Alcotest.(check int) "replace does not grow" 3 (Cache.length c);
  Cache.filter_map_inplace c (fun k v -> if k = "b" then Some (v + 1) else None);
  Alcotest.(check int) "filter drops the rest" 1 (Cache.length c);
  Alcotest.(check (option int)) "filter rebinds what it keeps" (Some 21)
    (Cache.find c "b");
  (* the kept key is still the oldest: the next overflow evicts it *)
  Cache.add c "x" 5;
  Cache.add c "y" 6;
  Cache.add c "z" 7;
  Alcotest.(check (option int)) "kept key evicted first" None (Cache.find c "b");
  Alcotest.(check int) "still bounded" 3 (Cache.length c);
  Cache.clear c;
  Alcotest.(check int) "clear" 0 (Cache.length c);
  let off = Cache.create ~capacity:0 in
  Cache.add off "a" 1;
  Alcotest.(check (option int)) "capacity 0 disables" None (Cache.find off "a")

(* ---- unit: the result encoder ---- *)

(* the body prefix as the daemon rendered it before the encoder wrote
   values straight into one buffer: a string per value, floats through
   [Printf], strings escaped char by char *)
let reference_core rel =
  let json_string s =
    let buf = Buffer.create 16 in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  in
  let value_json = function
    | Value.Null -> "null"
    | Value.Bool b -> if b then "true" else "false"
    | Value.Int i -> string_of_int i
    | Value.Float f ->
      if Float.is_finite f then Printf.sprintf "%.9g" f else "null"
    | Value.String s -> json_string s
    | Value.Date _ as v -> json_string (Value.to_string v)
  in
  let row r = "[" ^ String.concat "," (Array.to_list (Array.map value_json r)) ^ "]" in
  Printf.sprintf "{\"columns\":[%s],\"rows\":[%s],\"row_count\":%d"
    (String.concat "," (List.map json_string (Schema.names (Relation.schema rel))))
    (String.concat "," (Array.to_list (Array.map row (Relation.rows rel))))
    (Relation.cardinality rel)

let corner_case_relation =
  let schema =
    Schema.make
      [
        ("id", Value.TInt); ("flag", Value.TBool); ("x", Value.TFloat);
        ("d", Value.TDate); ("s \"quoted\"\\", Value.TString);
      ]
  in
  let floats =
    [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 0.1; -1e-300;
      1e300; 123456789.0; 1.0 /. 3.0; 5e-324 ]
  in
  let strings =
    [ ""; "plain"; "say \"hi\""; "back\\slash"; "tab\tnew\nline\rret";
      "\001\031ctl"; "\127del"; "caf\xc3\xa9"; "\"\\\"" ]
  in
  let rows =
    List.concat
      (List.mapi
         (fun i f ->
           List.mapi
             (fun j str ->
               [|
                 (if j = 0 then Value.Null else Value.Int ((i * 100) - j));
                 (if j = 1 then Value.Null else Value.Bool ((i + j) mod 2 = 0));
                 Value.Float f;
                 (if j = 2 then Value.Null else Value.Date ((i * 1000) - (j * 37)));
                 (if j = 3 then Value.Null else Value.String str);
               |])
             strings)
         floats)
  in
  Relation.create schema (rows @ [ [| Value.Int max_int; Value.Null; Value.Null; Value.Null; Value.Null |] ])

let test_result_encoder () =
  let check what rel =
    Alcotest.(check string) what (reference_core rel)
      (Server.Serve.result_core rel)
  in
  check "corner cases" corner_case_relation;
  check "no rows" (Relation.create (Relation.schema corner_case_relation) []);
  let db =
    Tpch.Datagen.assign_probabilities
      (Tpch.Datagen.generate
         { Tpch.Datagen.default with sf = 1.0; inconsistency = 3; seed = 11 })
  in
  let session = Conquer.Clean.create db in
  List.iter
    (fun (q : Tpch.Queries.query) ->
      check (Printf.sprintf "Q%d rewritten" q.qid)
        (Conquer.Clean.answers session q.sql);
      check (Printf.sprintf "Q%d original" q.qid)
        (Conquer.Clean.original session q.sql))
    Tpch.Queries.all

(* ---- unit: circuit breaker with an injected clock ---- *)

let test_breaker_transitions () =
  let open Server in
  let now = ref 0.0 in
  let policy =
    { Fault.Retry.attempts = 5; base_backoff = 1.0; max_backoff = 8.0; jitter = 0.0 }
  in
  let b = Breaker.create ~threshold:2 ~policy ~clock:(fun () -> !now) () in
  Alcotest.(check bool) "closed admits" true (Breaker.allow b);
  Breaker.failure b;
  Alcotest.(check bool) "one failure stays closed" true (Breaker.allow b);
  Breaker.failure b;
  Alcotest.(check bool) "threshold trips open" true (Breaker.state b = Breaker.Open);
  Alcotest.(check bool) "open refuses" false (Breaker.allow b);
  now := 0.5;
  Alcotest.(check bool) "still cooling down" false (Breaker.allow b);
  now := 1.1;
  Alcotest.(check bool) "cooldown over: one probe" true (Breaker.allow b);
  Alcotest.(check bool) "half-open refuses a second probe" false (Breaker.allow b);
  Breaker.failure b;
  Alcotest.(check bool) "probe failure re-opens" true (Breaker.state b = Breaker.Open);
  (* second trip backs off exponentially: 2s from the re-trip *)
  now := 2.0;
  Alcotest.(check bool) "longer cooldown holds" false (Breaker.allow b);
  now := 3.2;
  Alcotest.(check bool) "second probe admitted" true (Breaker.allow b);
  Breaker.success b;
  Alcotest.(check bool) "probe success closes" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check bool) "closed admits again" true (Breaker.allow b);
  Alcotest.(check int) "two trips counted" 2 (Breaker.trips b)

(* ---- unit: histogram quantiles ---- *)

let test_histogram_quantile () =
  let hs =
    {
      Telemetry.Metrics.hs_bounds = [| 0.001; 0.002; 0.004 |];
      hs_counts = [| 2; 3; 4; 5 |];
      hs_sum = 0.02;
      hs_total = 5;
      hs_exemplars = [| None; None; None; None |];
    }
  in
  Alcotest.(check (float 1e-9)) "p40 in first bucket" 0.001
    (Telemetry.Metrics.histogram_quantile hs 0.4);
  Alcotest.(check (float 1e-9)) "p60 in second bucket" 0.002
    (Telemetry.Metrics.histogram_quantile hs 0.6);
  Alcotest.(check (float 1e-9)) "overflow reports last bound" 0.004
    (Telemetry.Metrics.histogram_quantile hs 1.0);
  let empty =
    { Telemetry.Metrics.hs_bounds = [| 1.0 |]; hs_counts = [| 0; 0 |];
      hs_sum = 0.0; hs_total = 0; hs_exemplars = [| None; None |] }
  in
  Alcotest.(check (float 1e-9)) "empty histogram" 0.0
    (Telemetry.Metrics.histogram_quantile empty 0.99)

(* ---- unit: query-log records round-trip ---- *)

let test_querylog_roundtrip () =
  let open Server in
  let record =
    {
      Querylog.empty_record with
      ts = 1723111845.1234567;
      trace_id = "00ff00ff00ff00ff";
      sampled = true;
      sql = "SELECT \"weird\"\n\tid FROM t \\ x";
      fingerprint = Querylog.fingerprint "select id from t";
      plan_hash = "abcdef0123456789";
      generation = 7;
      mode = "original";
      status = 200;
      rows = 42;
      truncated = true;
      cancelled = false;
      cached = true;
      slow = true;
      queue_wait_ms = 0.037;
      exec_ms = 12.5;
      total_ms = 13.000000000000004;
    }
  in
  (match Querylog.of_json (Querylog.to_json record) with
  | Ok r -> Alcotest.(check bool) "bit-for-bit round-trip" true (r = record)
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e);
  (match Querylog.of_json "{}" with
  | Ok r ->
    Alcotest.(check bool) "missing keys take defaults" true
      (r = Querylog.empty_record)
  | Error e -> Alcotest.failf "empty object: %s" e);
  (match Querylog.of_json "{\"seq\":1,\"later_field\":\"ignored\"}" with
  | Ok r -> Alcotest.(check int) "unknown keys ignored" 1 r.Querylog.seq
  | Error e -> Alcotest.failf "unknown key: %s" e);
  (match Querylog.of_json "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (* ring + cursor semantics *)
  let log = Querylog.create ~capacity:4 () in
  let stamped =
    List.map
      (fun i ->
        Querylog.log log { Querylog.empty_record with rows = i })
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Alcotest.(check (list int)) "seq stamps monotonically"
    [ 1; 2; 3; 4; 5; 6 ]
    (List.map (fun (r : Querylog.record) -> r.seq) stamped);
  Alcotest.(check (list int)) "ring keeps the newest, ascending"
    [ 3; 4; 5; 6 ]
    (List.map (fun (r : Querylog.record) -> r.seq) (Querylog.recent log));
  Alcotest.(check (list int)) "cursor tails past seq 4"
    [ 5; 6 ]
    (List.map
       (fun (r : Querylog.record) -> r.seq)
       (Querylog.recent ~after:4 log));
  Alcotest.(check (list int)) "n keeps the newest"
    [ 5; 6 ]
    (List.map (fun (r : Querylog.record) -> r.seq) (Querylog.recent ~n:2 log));
  Querylog.close log

(* ---- unit: configurations that could never answer ---- *)

(* With no worker the daemon would admit requests and never run them;
   with no queue slot it would shed every one.  [create] refuses both
   before it reads the store or binds a socket, so a directory that
   does not exist still fails with the configuration error. *)
let rejects_config name config () =
  match Server.Serve.create ~config ~dir:"no-such-store" () with
  | exception Invalid_argument _ -> ()
  | exception e ->
    Alcotest.failf "%s: expected Invalid_argument, got %s" name
      (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: daemon created" name

(* ---- request tracing ---- *)

(* the pretty span rendering, one "(indent)name  X.XXXms ..." line per
   span: parse (indent, name, elapsed_ms) per line *)
let parse_pretty_spans text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let indent =
           let rec go i =
             if i < String.length line && line.[i] = ' ' then go (i + 1) else i
           in
           go 0
         in
         let rest = String.sub line indent (String.length line - indent) in
         match String.index_opt rest ' ' with
         | None -> None
         | Some i -> (
           let name = String.sub rest 0 i in
           let after = String.sub rest i (String.length rest - i) in
           let words =
             String.split_on_char ' ' after |> List.filter (fun w -> w <> "")
           in
           match
             List.find_opt
               (fun w -> String.length w > 2 && Filename.check_suffix w "ms")
               words
           with
           | Some w -> (
             match
               float_of_string_opt (String.sub w 0 (String.length w - 2))
             with
             | Some ms -> Some (indent, name, ms)
             | None -> None)
           | None -> None))

(* leaves of the indentation tree: a line none of whose successors is
   deeper before the indentation returns to its level *)
let leaf_ms spans =
  let arr = Array.of_list spans in
  let n = Array.length arr in
  let is_leaf i =
    let indent_i, _, _ = arr.(i) in
    if i + 1 >= n then true
    else
      let indent_next, _, _ = arr.(i + 1) in
      indent_next <= indent_i
  in
  let total = ref 0.0 in
  Array.iteri (fun i (_, _, ms) -> if is_leaf i then total := !total +. ms) arr;
  !total

let test_trace_capture_and_coverage () =
  let config = { base_config with trace_sample = 1.0 } in
  let trace_id = "feedc0de12345678" in
  let (), _report =
    with_server ~config fixture (fun _dir _t port ->
        (* a heavy enough query that per-operator time dominates the
           fixed per-request glue *)
        let target = "/query?mode=original&deadline_ms=30000" in
        let resp =
          Server.Http.request ~host:"127.0.0.1" ~port
            ~headers:[ ("x-trace-id", trace_id) ]
            ~body:"select a.val from alpha a, alpha b where a.val + b.val >= 0"
            target
        in
        Alcotest.(check int) "query ok" 200 resp.Server.Http.status;
        Alcotest.(check (option string)) "trace id echoed" (Some trace_id)
          (List.assoc_opt "x-trace-id" resp.Server.Http.r_headers);
        (* the retained trace, pretty-rendered by the daemon *)
        let pretty =
          expect_200
            (client port (Printf.sprintf "/debug/traces/%s?format=pretty" trace_id))
        in
        let spans = parse_pretty_spans pretty in
        let names = List.map (fun (_, name, _) -> name) spans in
        Alcotest.(check bool) "root serve.request" true
          (List.mem "serve.request" names);
        Alcotest.(check bool) "queue wait span" true
          (List.mem "serve.queue_wait" names);
        Alcotest.(check bool) "per-operator exec span" true
          (List.exists
             (fun n -> String.length n >= 5 && String.sub n 0 5 = "exec.")
             names);
        Alcotest.(check bool) "planner span" true
          (List.mem "planner.plan" names);
        Alcotest.(check bool) "serialization span" true
          (List.mem "serve.serialize" names);
        let root_ms =
          match spans with
          | (_, _, ms) :: _ -> ms
          | [] -> Alcotest.fail "no spans parsed"
        in
        let covered = leaf_ms spans in
        Alcotest.(check bool)
          (Printf.sprintf "leaf spans cover >=95%% (%.3f of %.3fms)" covered
             root_ms)
          true
          (covered >= 0.95 *. root_ms);
        (* JSON form of the same trace *)
        let json = expect_200 (client port ("/debug/traces/" ^ trace_id)) in
        Alcotest.(check bool) "json trace carries id" true
          (find_sub json trace_id <> None);
        (* the index lists it *)
        let index = expect_200 (client port "/debug/traces") in
        Alcotest.(check bool) "index lists the trace" true
          (find_sub index trace_id <> None);
        (* exemplars join the latency histogram to this trace *)
        let ex = expect_200 (client port "/debug/exemplars") in
        Alcotest.(check bool) "exemplar references a trace" true
          (find_sub ex "serve.request_seconds" <> None);
        (* unknown ids 404 *)
        match client port "/debug/traces/0000000000000000" with
        | Resp { status = 404; _ } -> ()
        | Resp { status; _ } -> Alcotest.failf "expected 404, got %d" status
        | Conn_error e -> Alcotest.failf "connection error: %s" e)
  in
  ()

(* four worker domains, every request traced with its own id: each
   retained tree must be intact (its own trace id, exactly one queue
   wait, a planner and an exec subtree) — a cross-domain span-stack
   mixup would show up as missing or foreign spans *)
let test_trace_integrity_across_domains () =
  let config =
    { base_config with concurrency = 4; trace_sample = 1.0;
      trace_capacity = 128; cache_capacity = 0 }
  in
  let n_clients = 4 and per_client = 8 in
  let ids =
    List.init (n_clients * per_client) (fun i ->
        Printf.sprintf "ab%014x" (i + 1))
  in
  let (), _report =
    with_server ~config fixture (fun _dir _t port ->
        let fire id k =
          let sql = List.nth fast_queries (k mod List.length fast_queries) in
          let resp =
            Server.Http.request ~host:"127.0.0.1" ~port
              ~headers:[ ("x-trace-id", id) ]
              ~body:sql "/query"
          in
          resp.Server.Http.status
        in
        (* the client domains only collect statuses: Alcotest prints
           through Format, which is not domain-safe, so every check
           runs here on the main domain *)
        List.init n_clients (fun c ->
            Domain.spawn (fun () ->
                List.mapi
                  (fun k id -> fire id k)
                  (List.filteri
                     (fun i _ -> i mod n_clients = c)
                     ids)))
        |> List.concat_map Domain.join
        |> List.iter (Alcotest.(check int) "query ok" 200);
        List.iter
          (fun id ->
            let pretty =
              expect_200
                (client port
                   (Printf.sprintf "/debug/traces/%s?format=pretty" id))
            in
            Alcotest.(check bool)
              ("trace " ^ id ^ " carries its own id")
              true
              (find_sub pretty ("trace_id=" ^ id) <> None);
            let spans = parse_pretty_spans pretty in
            let count name =
              List.length (List.filter (fun (_, n, _) -> n = name) spans)
            in
            Alcotest.(check int) "exactly one root" 1 (count "serve.request");
            Alcotest.(check int) "exactly one queue wait" 1
              (count "serve.queue_wait");
            Alcotest.(check int) "exactly one engine subtree" 1
              (count "engine.query");
            (* >= 1: a prepared-cache miss also plans once for the
               plan hash *)
            Alcotest.(check bool) "planned" true (count "planner.plan" >= 1);
            Alcotest.(check bool) "per-operator exec spans" true
              (List.exists
                 (fun (_, n, _) ->
                   String.length n >= 5 && String.sub n 0 5 = "exec.")
                 spans))
          ids)
  in
  ()

(* rate 0 plus a zero slow-query threshold: nothing samples, but every
   request crosses the threshold and is promoted to a retained dump *)
let test_slow_query_promotion () =
  let config =
    { base_config with trace_sample = 0.0; slow_query_ms = Some 0.0 }
  in
  let (), _report =
    with_server ~config fixture (fun _dir _t port ->
        let resp =
          Server.Http.request ~host:"127.0.0.1" ~port
            ~headers:[ ("x-trace-id", "5109999999999999") ]
            ~body:q_alpha "/query"
        in
        Alcotest.(check int) "query ok" 200 resp.Server.Http.status;
        ignore
          (expect_200 (client port "/debug/traces/5109999999999999"));
        let log = expect_200 (client port "/debug/querylog?n=10") in
        Alcotest.(check bool) "record flagged slow" true
          (find_sub log "\"slow\":true" <> None))
  in
  ()

(* the structured query log over the wire: every /query lands one
   record, parseable by the CLI's reader, with the latency split and
   the outcome flags; the seq cursor tails correctly *)
let test_querylog_over_http () =
  let config = { base_config with trace_sample = 1.0 } in
  let (), _report =
    with_server ~config fixture (fun _dir _t port ->
        List.iter
          (fun sql -> ignore (expect_200 (client port ~body:sql "/query")))
          fast_queries;
        (* one cached repeat *)
        ignore (expect_200 (client port ~body:q_alpha "/query"));
        let body = expect_200 (client port "/debug/querylog?n=100") in
        let records =
          String.split_on_char '\n' body
          |> List.filter (fun l -> String.trim l <> "")
          |> List.map (fun line ->
                 match Server.Querylog.of_json line with
                 | Ok r -> r
                 | Error e -> Alcotest.failf "unparseable record %s: %s" line e)
        in
        Alcotest.(check int) "one record per query" 4 (List.length records);
        List.iter
          (fun (r : Server.Querylog.record) ->
            Alcotest.(check int) "status" 200 r.status;
            Alcotest.(check bool) "rows counted" true (r.rows > 0);
            Alcotest.(check bool) "fingerprint present" true
              (String.length r.fingerprint = 16);
            Alcotest.(check bool) "plan hash present" true
              (String.length r.plan_hash = 16);
            Alcotest.(check bool) "generation known" true (r.generation >= 0);
            Alcotest.(check bool) "total covers exec" true
              (r.total_ms >= r.exec_ms);
            Alcotest.(check bool) "queue wait measured" true
              (r.queue_wait_ms >= 0.0);
            Alcotest.(check bool) "trace id present" true
              (Telemetry.Trace.valid_id r.trace_id))
          records;
        Alcotest.(check bool) "cached repeat flagged" true
          (List.exists (fun (r : Server.Querylog.record) -> r.cached) records);
        (* identical queries share fingerprints *)
        let by_first =
          List.filter
            (fun (r : Server.Querylog.record) ->
              r.fingerprint
              = (List.hd records).Server.Querylog.fingerprint)
            records
        in
        Alcotest.(check int) "repeat shares the fingerprint" 2
          (List.length by_first);
        (* cursor: everything after the second record *)
        let tail = expect_200 (client port "/debug/querylog?n=100&after=2") in
        let tail_seqs =
          String.split_on_char '\n' tail
          |> List.filter (fun l -> String.trim l <> "")
          |> List.map (fun line ->
                 match Server.Querylog.of_json line with
                 | Ok r -> r.Server.Querylog.seq
                 | Error e -> Alcotest.failf "tail parse: %s" e)
        in
        Alcotest.(check (list int)) "seq cursor" [ 3; 4 ] tail_seqs)
  in
  ()

(* /debug/requests shows an executing query with its trace id, and
   /debug/gc answers *)
let test_debug_requests_inflight () =
  let config =
    { base_config with trace_sample = 1.0; cache_capacity = 0 }
  in
  let (), _report =
    with_server ~config fixture (fun _dir _t port ->
        let slow_client =
          Domain.spawn (fun () ->
              client port
                ~body:slow_sql
                ~timeout:30.0 "/query?mode=original&deadline_ms=3000")
        in
        (* poll until the slow query shows up in flight *)
        let rec probe tries =
          let body = expect_200 (client port "/debug/requests") in
          if find_sub body "\"sql\":" <> None && find_sub body "alpha" <> None
          then body
          else if tries <= 0 then
            Alcotest.failf "query never appeared in flight: %s" body
          else begin
            Unix.sleepf 0.02;
            probe (tries - 1)
          end
        in
        let body = probe 100 in
        Alcotest.(check bool) "trace id listed" true
          (find_sub body "\"trace_id\":" <> None);
        Alcotest.(check bool) "elapsed listed" true
          (find_sub body "\"elapsed_ms\":" <> None);
        let gc = expect_200 (client port "/debug/gc") in
        Alcotest.(check bool) "gc snapshot" true
          (find_sub gc "\"heap_words\":" <> None);
        ignore (Domain.join slow_client))
  in
  ()

(* with sampling off and no slow threshold, nothing is retained and
   the debug surface stays empty (the <3%% overhead configuration) *)
let test_tracing_off_retains_nothing () =
  let (), _report =
    with_server fixture (fun _dir _t port ->
        List.iter
          (fun sql -> ignore (expect_200 (client port ~body:sql "/query")))
          fast_queries;
        let index = expect_200 (client port "/debug/traces") in
        Alcotest.(check bool) "no traces retained" true
          (find_sub index "\"count\":0" <> None);
        (* the query log still records everything *)
        let log = expect_200 (client port "/debug/querylog?n=10") in
        let lines =
          List.filter
            (fun l -> String.trim l <> "")
            (String.split_on_char '\n' log)
        in
        Alcotest.(check int) "query log still populated" 3
          (List.length lines);
        List.iter
          (fun line ->
            match Server.Querylog.of_json line with
            | Ok r ->
              Alcotest.(check bool) "not sampled" false
                r.Server.Querylog.sampled
            | Error e -> Alcotest.failf "parse: %s" e)
          lines)
  in
  ()

(* --query-log FILE: records are also appended as JSON lines *)
let test_querylog_file_sink () =
  Testutil.with_temp_dir @@ fun scratch ->
  let path = Filename.concat scratch "queries.jsonl" in
  let config = { base_config with querylog_path = Some path } in
  let (), _report =
    with_server ~config fixture (fun _dir _t port ->
        List.iter
          (fun sql -> ignore (expect_200 (client port ~body:sql "/query")))
          [ q_alpha; q_beta ])
  in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let records =
    List.rev_map
      (fun line ->
        match Server.Querylog.of_json line with
        | Ok r -> r
        | Error e -> Alcotest.failf "file sink line %s: %s" line e)
      !lines
  in
  Alcotest.(check int) "one line per query" 2 (List.length records)

(* Observation never changes answers: one request sequence against a
   daemon that traces every request and one that traces none returns
   byte-identical rows, partial flags and row counts — cache misses
   and hits, a pruned join, original and rewritten modes, a truncated
   budget. *)
let test_trace_sampling_invisible () =
  let requests =
    (* budgeted first: once the complete answer is cached, a budgeted
       request is answered from the cache in full *)
    (("/query?budget_rows=2", q_proj)
    :: List.map (fun sql -> ("/query", sql)) fast_queries)
    @ [
        ( "/query?mode=original",
          "select a.id, b.val from alpha a, beta b where a.val = b.val" );
      ]
  in
  let answers port =
    (* twice: the second pass answers the complete results from the
       cache *)
    List.concat_map
      (fun _ ->
        List.map
          (fun (target, sql) ->
            let body = expect_200 (client port ~body:sql target) in
            ( target ^ sql,
              body_rows body,
              body_field body "partial",
              body_field body "row_count" ))
          requests)
      [ 1; 2 ]
  in
  let config = { base_config with concurrency = 1 } in
  let ((traced, untraced), _), _ =
    with_server ~config:{ config with trace_sample = 1.0 } fixture
      (fun dir _t port ->
        let traced = answers port in
        serve_store ~config:{ config with trace_sample = 0.0 } dir
          (fun _t port -> (traced, answers port)))
  in
  List.iter2
    (fun (label, rows, partial, count) (_, rows', partial', count') ->
      Alcotest.(check string) (label ^ ": rows") rows rows';
      Alcotest.(check string) (label ^ ": partial") partial partial';
      Alcotest.(check string) (label ^ ": row_count") count count')
    traced untraced;
  Alcotest.(check bool) "the budgeted request was truncated" true
    (List.exists (fun (_, _, partial, _) -> partial = "true") traced)

(* ---- endpoints and differential answers ---- *)

let test_endpoints_and_answers () =
  let expected = expected_rows fixture in
  let (), _report =
    with_server fixture (fun _dir _t port ->
        let body = expect_200 (client port "/healthz") in
        Alcotest.(check string) "healthz" "{\"status\":\"ok\"}" body;
        ignore (expect_200 (client port "/readyz"));
        (match client port "/metrics" with
        | Resp { status = 200; r_body; _ } ->
          Alcotest.(check bool) "prometheus exposition" true
            (find_sub r_body "conquer_serve_requests" <> None)
        | _ -> Alcotest.fail "metrics endpoint failed");
        List.iter
          (fun (sql, rows) ->
            let body = expect_200 (client port ~body:sql "/query") in
            Alcotest.(check string) ("answers: " ^ sql) rows (body_rows body);
            Alcotest.(check bool) "complete" false (body_flag body "partial");
            Alcotest.(check bool) "first run computes" false
              (body_flag body "cached");
            let again = expect_200 (client port ~body:sql "/query") in
            Alcotest.(check string) "cached rows identical" rows
              (body_rows again);
            Alcotest.(check bool) "second run cached" true
              (body_flag again "cached"))
          expected;
        (match client port "/nope" with
        | Resp { status = 404; _ } -> ()
        | _ -> Alcotest.fail "unknown path should 404");
        (match client port ~body:q_alpha "/healthz" with
        | Resp { status = 405; _ } -> ()
        | _ -> Alcotest.fail "POST /healthz should 405");
        (match client port "/query" with
        | Resp { status = 400; _ } -> ()
        | _ -> Alcotest.fail "query without sql should 400");
        (match client port ~body:"select nonsense from" "/query" with
        | Resp { status = 400; _ } -> ()
        | _ -> Alcotest.fail "parse error should 400");
        (match client port ~body:"select val from alpha" "/query" with
        | Resp { status = 400; r_body; _ } ->
          Alcotest.(check bool) "explains the violation" true
            (find_sub r_body "not rewritable" <> None)
        | _ -> Alcotest.fail "non-rewritable should 400"))
  in
  ()

let test_partial_on_tiny_budget () =
  let (), _report =
    with_server fixture (fun _dir _t port ->
        let body =
          expect_200 (client port ~body:q_alpha "/query?budget_rows=2")
        in
        Alcotest.(check bool) "partial" true (body_flag body "partial");
        Alcotest.(check bool) "truncated" true (body_flag body "truncated");
        (* partial results must never be served from the cache *)
        let again =
          expect_200 (client port ~body:q_alpha "/query?budget_rows=2")
        in
        Alcotest.(check bool) "partial not cached" false
          (body_flag again "cached"))
  in
  ()

let test_deadline_partial_or_408 () =
  let (), _report =
    with_server fixture (fun _dir _t port ->
        let started = Unix.gettimeofday () in
        let outcome =
          client port ~body:slow_sql "/query?mode=original&deadline_ms=500"
        in
        let elapsed = Unix.gettimeofday () -. started in
        (match outcome with
        | Resp { status = 200; r_body; _ } ->
          Alcotest.(check bool) "over-deadline answer is partial" true
            (body_flag r_body "partial");
          Alcotest.(check bool) "flagged cancelled" true
            (body_flag r_body "cancelled")
        | Resp { status = 408; _ } -> ()
        | Resp { status; r_body; _ } ->
          Alcotest.failf "expected partial 200 or 408, got %d: %s" status r_body
        | Conn_error e -> Alcotest.failf "connection error: %s" e);
        Alcotest.(check bool)
          (Printf.sprintf "within 2x deadline (took %.3fs)" elapsed)
          true (elapsed <= 1.0))
  in
  ()

(* ---- overload: shed with Retry-After, queue deadline 408 ---- *)

let test_shed_under_burst () =
  let config =
    { base_config with concurrency = 1; queue_capacity = 2; default_deadline = 0.4 }
  in
  let before = Option.value (Telemetry.Metrics.counter_value "serve.shed") ~default:0 in
  let outcomes, _report =
    with_server ~config fixture (fun _dir _t port ->
        let clients =
          List.init 12 (fun _ ->
              Domain.spawn (fun () ->
                  client port ~body:slow_sql "/query?mode=original"))
        in
        List.map Domain.join clients)
  in
  let shed =
    List.filter
      (fun o ->
        match o with
        | Resp ({ status = 503; _ } as r) ->
          Alcotest.(check bool) "shed carries retry-after" true
            (Server.Http.(
               List.assoc_opt "retry-after" r.r_headers <> None));
          true
        | _ -> false)
      outcomes
  in
  List.iter
    (fun o ->
      match o with
      | Resp { status = 200 | 408 | 503; _ } -> ()
      | Resp { status; r_body; _ } ->
        Alcotest.failf "burst produced status %d: %s" status r_body
      | Conn_error _ -> (* a shed connection torn down mid-exchange *) ())
    outcomes;
  Alcotest.(check bool) "burst actually shed" true (List.length shed >= 1);
  let after = Option.value (Telemetry.Metrics.counter_value "serve.shed") ~default:0 in
  Alcotest.(check bool) "serve.shed counted" true (after > before)

(* ---- disconnect cancellation frees the worker ---- *)

let test_client_disconnect_cancels () =
  let config = { base_config with concurrency = 1 } in
  let before =
    Option.value (Telemetry.Metrics.counter_value "serve.cancelled") ~default:0
  in
  let (), _report =
    with_server ~config fixture (fun _dir _t port ->
        (* occupy the only worker with a 30s-deadline heavy query whose
           client immediately hangs up *)
        fire_and_hangup port "/query?mode=original&deadline_ms=30000";
        Unix.sleepf 0.2;
        (* the reaper must trip the abandoned query's token well before
           its deadline, freeing the worker for this request *)
        let started = Unix.gettimeofday () in
        let body = expect_200 (client port ~body:q_alpha "/query" ~timeout:20.0) in
        let elapsed = Unix.gettimeofday () -. started in
        Alcotest.(check bool) "answer still correct" false
          (body_flag body "partial");
        Alcotest.(check bool)
          (Printf.sprintf "worker freed fast (%.3fs)" elapsed)
          true (elapsed < 10.0))
  in
  let after =
    Option.value (Telemetry.Metrics.counter_value "serve.cancelled") ~default:0
  in
  Alcotest.(check bool) "disconnect counted as cancellation" true (after > before)

(* ---- cache invalidation across commits (satellite property) ---- *)

let test_cache_invalidation_on_commit () =
  let (), _report =
    with_server fixture (fun dir _t port ->
        for k = 1 to 6 do
          (* populate the cache for the current generation... *)
          ignore (expect_200 (client port ~body:q_alpha "/query"));
          let warm = expect_200 (client port ~body:q_alpha "/query") in
          Alcotest.(check bool) "cache warm before commit" true
            (body_flag warm "cached");
          (* ...then commit a snapshot with different answers *)
          let db = variant k in
          Store.save dir db;
          let committed = Store.generation dir in
          let fresh = List.assoc q_alpha (expected_rows db) in
          let body = expect_200 (client port ~body:q_alpha "/query") in
          Alcotest.(check int)
            (Printf.sprintf "commit %d visible immediately" k)
            committed (body_generation body);
          Alcotest.(check string)
            (Printf.sprintf "no stale answers after commit %d" k)
            fresh (body_rows body);
          Alcotest.(check bool) "not served from the stale cache" false
            (body_flag body "cached")
        done)
  in
  ()

(* ---- retention across updates (property) ---- *)

(* parent <- child by foreign key, plus a table no other one refers to *)
let retention_db =
  let spec =
    Fuzz.Dbgen.parent_child_spec
    @ [ { Fuzz.Dbgen.name = "other"; payloads = [ "val" ]; fks = [] } ]
  in
  QCheck.Gen.generate1 ~rand:(Random.State.make [| 17 |])
    (Fuzz.Dbgen.instance_gen ~max_candidates:4096 spec)

(* (request target, SQL, tables it reads): one query per table, a
   join, and an original-mode query whose subquery reads a table its
   FROM list does not *)
let retention_queries =
  [
    ("/query", "select id, val from parent", [ "parent" ]);
    ("/query", "select id, val, fk from child", [ "child" ]);
    ("/query", "select id, val from other", [ "other" ]);
    ( "/query",
      "select c.id, p.val from child c, parent p where c.fk = p.id",
      [ "child"; "parent" ] );
    ( "/query?mode=original",
      "select id from parent where val in (select val from other)",
      [ "other"; "parent" ] );
  ]

let op_kind = function
  | Delta.Insert _ -> "insert"
  | Delta.Delete _ -> "delete"
  | Delta.Split _ -> "split"
  | Delta.Merge _ -> "merge"
  | Delta.Reassign _ -> "reassign"

(* a 200 body without the per-reply [cached] and [elapsed_ms] fields,
   which close every /query body *)
let strip_per_reply body =
  let tag = ",\"cached\":" in
  let rec last from found =
    match find_sub (String.sub body from (String.length body - from)) tag with
    | Some i -> last (from + i + 1) (Some (from + i))
    | None -> found
  in
  match last 0 None with
  | Some i -> String.sub body 0 i
  | None -> Alcotest.failf "no cached field in %s" body

(* A daemon applying random update batches keeps the cached answers of
   queries that read no table a batch changed, and every reply it
   gives, kept or recomputed, is the one a daemon without a cache
   gives over the same store at the same generation.  The batches
   weigh clusters off the dyadic grid ([Free]), where a probability's
   printed digits depend on the order its sums were taken in. *)
let test_retention_matches_fresh () =
  let batches, _ =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 5 |])
      (Fuzz.Updategen.sequence_gen ~mode:Free retention_db ~batches:30 ~len:2)
  in
  let ops = List.concat batches in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " ops drawn") true
        (List.exists (fun op -> op_kind op = kind) ops))
    [ "insert"; "delete"; "split"; "merge"; "reassign" ];
  let tables_of batch = List.sort_uniq compare (List.map Delta.op_table batch) in
  Alcotest.(check bool) "some batch spans several tables" true
    (List.exists (fun b -> List.length (tables_of b) > 1) batches);
  let config = { base_config with concurrency = 1 } in
  let retained = ref 0 in
  let (), _report =
    with_server ~config retention_db (fun dir _t port ->
        let (), _ =
          serve_store ~config:{ config with cache_capacity = 0 } dir
            (fun _t fresh_port ->
              let compare_all ~changed =
                List.iter
                  (fun (target, sql, tables) ->
                    let kept = expect_200 (client port ~body:sql target) in
                    let fresh = expect_200 (client fresh_port ~body:sql target) in
                    Alcotest.(check string)
                      (Printf.sprintf "%s%s: same body as a cacheless daemon"
                         target sql)
                      (strip_per_reply fresh) (strip_per_reply kept);
                    Alcotest.(check bool) "the cacheless daemon never hits"
                      false (body_flag fresh "cached");
                    match changed with
                    | None -> ()
                    | Some changed ->
                      let untouched =
                        not (List.exists (fun t -> List.mem t changed) tables)
                      in
                      if untouched then incr retained;
                      Alcotest.(check bool)
                        (Printf.sprintf "%s: cached iff no table it reads changed"
                           sql)
                        untouched (body_flag kept "cached"))
                  retention_queries
              in
              compare_all ~changed:None;
              List.iter
                (fun batch ->
                  let csv =
                    String.concat "\n"
                      (List.map Csv.render_line (Delta.to_rows batch))
                  in
                  ignore (expect_200 (client port ~body:csv "/update"));
                  compare_all ~changed:(Some (tables_of batch)))
                batches)
        in
        let prom = expect_200 (client port "/metrics") in
        Alcotest.(check bool) "retained counter exported" true
          (find_sub prom "conquer_serve_cache_retained_total" <> None))
  in
  Alcotest.(check bool)
    (Printf.sprintf "answers were kept across unrelated updates (%d)"
       !retained)
    true (!retained > 0)

(* ---- POST /update: commit, invalidation, durability ---- *)

let test_update_endpoint () =
  let batch_csv = "reassign,alpha,c0,1,3\ninsert,alpha,zz,5,1.0" in
  let updated =
    (Delta.apply fixture (Delta.of_rows (Csv.parse_rows batch_csv))).Delta.db
  in
  let (), _report =
    with_server fixture (fun dir _t port ->
        (* warm the result cache for the current generation *)
        ignore (expect_200 (client port ~body:q_alpha "/query"));
        let warm = expect_200 (client port ~body:q_alpha "/query") in
        Alcotest.(check bool) "cache warm before update" true
          (body_flag warm "cached");
        let gen0 = body_generation warm in
        (match client port "/update" with
        | Resp { status = 405; _ } -> ()
        | _ -> Alcotest.fail "GET /update should 405");
        (* nothing commits on bad input *)
        List.iter
          (fun body ->
            match client port ~body "/update" with
            | Resp { status = 400; _ } -> ()
            | Resp { status; r_body; _ } ->
              Alcotest.failf "bad update %S: expected 400, got %d: %s" body
                status r_body
            | Conn_error e -> Alcotest.failf "connection error: %s" e)
          [ " "; "bogus,alpha,c0"; "delete,alpha,nope,0" ];
        Alcotest.(check int) "rejected updates committed nothing" gen0
          (Store.generation dir);
        (* the real batch *)
        let body = expect_200 (client port ~body:batch_csv "/update") in
        let gen = body_generation body in
        Alcotest.(check int) "generation bumped" (gen0 + 1) gen;
        Alcotest.(check string) "ops counted" "2" (body_field body "ops");
        Alcotest.(check string) "touched clusters counted" "2"
          (body_field body "touched");
        Alcotest.(check bool) "delta append, not a compaction" false
          (body_flag body "compacted");
        (* immediately visible, never served from the stale cache *)
        let fresh = List.assoc q_alpha (expected_rows updated) in
        let q = expect_200 (client port ~body:q_alpha "/query") in
        Alcotest.(check int) "new generation visible" gen (body_generation q);
        Alcotest.(check string) "updated answers" fresh (body_rows q);
        Alcotest.(check bool) "stale cache not used" false (body_flag q "cached");
        (* durable: an independent load replays the committed delta *)
        Alcotest.(check bool) "committed delta replays on load" true
          (Testutil.db_fingerprint (Store.load dir)
          = Testutil.db_fingerprint updated);
        (* metrics surface *)
        let prom = expect_200 (client port "/metrics") in
        Alcotest.(check bool) "updates counter exported" true
          (find_sub prom "conquer_serve_updates" <> None);
        Alcotest.(check bool) "journal bytes gauge exported" true
          (find_sub prom "conquer_dirty_store_journal_bytes" <> None))
  in
  ()

let test_update_compaction_threshold () =
  let config = { base_config with compact_every = 2 } in
  let (), _report =
    with_server ~config fixture (fun dir _t port ->
        let b1 =
          expect_200 (client port ~body:"reassign,alpha,c1,1,1" "/update")
        in
        Alcotest.(check bool) "first update appends a delta" false
          (body_flag b1 "compacted");
        Alcotest.(check int) "chain grew" 1 (Store.delta_chain_length dir);
        let b2 =
          expect_200 (client port ~body:"reassign,alpha,c2,1,1" "/update")
        in
        Alcotest.(check bool) "threshold update compacts" true
          (body_flag b2 "compacted");
        Alcotest.(check int) "chain reset by the snapshot" 0
          (Store.delta_chain_length dir))
  in
  ()

(* A restarted daemon serves exactly what it served before the
   restart.  The updates reassign off-grid probabilities (1/3, 1/5,
   ...) and one of them lands on a compacting save, so the restarted
   daemon loads some clusters from a snapshot file and the rest from
   replayed deltas. *)
let test_restart_keeps_answers () =
  let config = { base_config with compact_every = 3 } in
  let updates =
    [ "reassign,alpha,c0,1,2"; "reassign,alpha,c1,1,4"; "reassign,alpha,c2,2,5";
      "reassign,alpha,c3,1,6"; "reassign,beta,c4,3,4" ]
  in
  let answers port =
    List.map (fun q -> (q, body_rows (expect_200 (client port ~body:q "/query")))) fast_queries
  in
  Testutil.with_temp_dir @@ fun dir ->
  Fault.Io.reset ();
  Store.save dir fixture;
  let (before, compactions), _ =
    serve_store ~config dir (fun _t port ->
        let compactions =
          List.filter
            (fun u -> body_flag (expect_200 (client port ~body:u "/update")) "compacted")
            updates
        in
        (answers port, List.length compactions))
  in
  Alcotest.(check int) "one update compacted" 1 compactions;
  let after, _ = serve_store ~config dir (fun _t port -> answers port) in
  List.iter2
    (fun (q, b) (_, a) -> Alcotest.(check string) ("same answers after restart: " ^ q) b a)
    before after;
  (* the served JSON carries 9 digits; the reloaded store must hold
     the in-memory probabilities to all 17 *)
  let applied =
    List.fold_left
      (fun db u -> (Delta.apply db (Delta.of_rows (Csv.parse_rows u))).Delta.db)
      fixture updates
  in
  let exact db q =
    Relation.rows (Conquer.Clean.answers (Conquer.Clean.create db) q)
    |> Array.map (Array.map (function
         | Value.Float f -> Printf.sprintf "%.17g" f
         | v -> Value.to_string v))
    |> Array.to_list |> List.map Array.to_list
  in
  List.iter
    (fun q ->
      Alcotest.(check (list (list string)))
        ("reloaded store answers to 17 digits: " ^ q)
        (exact applied q) (exact (Store.load dir) q))
    fast_queries

(* concurrent writers: every update serializes onto a distinct
   generation, losers get 503 + Retry-After (never 500), and the final
   database is the commutative image of every committed reassign *)
let test_concurrent_updates_serialize () =
  let n_writers = 4 and per_writer = 4 in
  let config = { base_config with concurrency = 4 } in
  let (results, final_gen, final_db), _report =
    with_server ~config fixture (fun dir _t port ->
        let writers =
          List.init n_writers (fun w ->
              Domain.spawn (fun () ->
                  List.init per_writer (fun i ->
                      let csv =
                        Printf.sprintf "reassign,alpha,c%d,1,3"
                          ((w * per_writer) + i)
                      in
                      (w, i, client port ~body:csv "/update"))))
        in
        let results = List.concat_map Domain.join writers in
        (results, Store.generation dir, Store.load dir))
  in
  let committed =
    List.filter_map
      (fun (w, i, o) ->
        match o with
        | Resp ({ status = 200; r_body; _ } : Server.Http.response) ->
          Some ((w * per_writer) + i, body_generation r_body)
        | Resp ({ status = 503; _ } as r) ->
          Alcotest.(check bool) "write-path 503 carries retry-after" true
            (List.assoc_opt "retry-after" r.Server.Http.r_headers <> None);
          None
        | Resp { status; r_body; _ } ->
          Alcotest.failf "concurrent update status %d: %s" status r_body
        | Conn_error e -> Alcotest.failf "connection error: %s" e)
      results
  in
  let gens = List.map snd committed in
  Alcotest.(check int) "every commit took a distinct generation"
    (List.length gens)
    (List.length (List.sort_uniq compare gens));
  Alcotest.(check int) "final generation counts the commits"
    (1 + List.length committed)
    final_gen;
  (* distinct clusters commute, so the final database is the image of
     applying exactly the committed reassigns in any order *)
  let expected =
    List.fold_left
      (fun db (k, _) ->
        (Delta.apply db
           [
             Delta.Reassign
               {
                 table = "alpha";
                 cluster = Value.String (Printf.sprintf "c%d" k);
                 weights = [| 1.0; 3.0 |];
               };
           ])
          .Delta.db)
      fixture committed
  in
  Alcotest.(check bool) "final database is the committed image" true
    (Testutil.db_fingerprint final_db = Testutil.db_fingerprint expected)

(* ---- circuit breaker against injected store faults ---- *)

let test_breaker_trips_and_recovers () =
  let saved_policy = Fault.Retry.policy () in
  Fault.Retry.set_policy
    { attempts = 2; base_backoff = 0.02; max_backoff = 0.1; jitter = 0.0 };
  Fun.protect ~finally:(fun () -> Fault.Retry.set_policy saved_policy)
  @@ fun () ->
  let config = { base_config with breaker_threshold = 2 } in
  let before =
    Option.value (Telemetry.Metrics.counter_value "serve.breaker_trips")
      ~default:0
  in
  let (), _report =
    with_server ~config fixture (fun _dir _t port ->
        ignore (expect_200 (client port ~body:q_alpha "/query"));
        (* simulate the store's disk dying mid-flight: every shim
           operation now raises *)
        Fault.Io.reset ();
        Fault.Io.arm [ (0, Fault.Io.Crash) ];
        let statuses =
          List.init 6 (fun _ ->
              match client port ~body:q_beta "/query" with
              | Resp r -> r.Server.Http.status
              | Conn_error e -> Alcotest.failf "connection error: %s" e)
        in
        List.iter
          (fun s ->
            Alcotest.(check int) "faulty store answers 503, not 500" 503 s)
          statuses;
        (* cached answers for the current generation are not reachable
           while the breaker is open — the daemon fails fast instead *)
        (* the disk heals; after the cooldown the half-open probe must
           close the breaker and serve again *)
        Fault.Io.reset ();
        Unix.sleepf 0.3;
        let rec recovered tries =
          if tries = 0 then Alcotest.fail "breaker never closed after heal"
          else
            match client port ~body:q_alpha "/query" with
            | Resp { status = 200; _ } -> ()
            | _ ->
              Unix.sleepf 0.1;
              recovered (tries - 1)
        in
        recovered 10)
  in
  let after =
    Option.value (Telemetry.Metrics.counter_value "serve.breaker_trips")
      ~default:0
  in
  Alcotest.(check bool) "breaker trip counted" true (after > before)

(* ---- drain: clean and forced ---- *)

let test_graceful_drain_clean () =
  let config = { base_config with concurrency = 2; drain_deadline = 10.0 } in
  let outcomes, report =
    with_server ~config fixture (fun _dir t port ->
        let clients =
          List.init 3 (fun _ ->
              Domain.spawn (fun () ->
                  client port ~body:slow_sql "/query?mode=original&deadline_ms=800"))
        in
        Unix.sleepf 0.1;
        (* drain while they are still executing; with_server joins the
           runner, so returning here races shutdown against the work *)
        Server.Serve.shutdown t;
        List.map Domain.join clients)
  in
  Alcotest.(check bool) "drained cleanly" true report.Server.Serve.drained;
  List.iter
    (fun o ->
      match o with
      | Resp { status = 200 | 408 | 503; _ } -> ()
      | Resp { status; _ } -> Alcotest.failf "drain produced status %d" status
      | Conn_error e -> Alcotest.failf "drain dropped a client: %s" e)
    outcomes

let test_forced_drain_cancels () =
  let config =
    { base_config with concurrency = 2; drain_deadline = 0.2; default_deadline = 30.0 }
  in
  let started = Unix.gettimeofday () in
  let outcomes, report =
    with_server ~config fixture (fun _dir t port ->
        let clients =
          List.init 2 (fun _ ->
              Domain.spawn (fun () ->
                  client port ~body:slow_sql "/query?mode=original"))
        in
        Unix.sleepf 0.15;
        Server.Serve.shutdown t;
        List.map Domain.join clients)
  in
  let elapsed = Unix.gettimeofday () -. started in
  Alcotest.(check bool) "hard drain reported" false report.Server.Serve.drained;
  Alcotest.(check bool) "in-flight work was cancelled" true
    (report.Server.Serve.cancelled_inflight >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "came down in bounded time (%.2fs)" elapsed)
    true (elapsed < 10.0);
  (* force-cancelled queries still answer: 200 with the partial flag *)
  List.iter
    (fun o ->
      match o with
      | Resp { status = 200; r_body; _ } ->
        Alcotest.(check bool) "cancelled partial" true
          (body_flag r_body "partial")
      | Resp { status = 408 | 503; _ } -> ()
      | Resp { status; _ } -> Alcotest.failf "forced drain status %d" status
      | Conn_error e -> Alcotest.failf "forced drain dropped a client: %s" e)
    outcomes

(* ---- metrics surface (satellite snapshot test) ---- *)

let test_metrics_surface () =
  (* by this point earlier tests have driven real traffic *)
  let names =
    List.map
      (fun (s : Telemetry.Metrics.sample) -> s.name)
      (Telemetry.Metrics.snapshot ())
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [
      "serve.requests"; "serve.shed"; "serve.cancelled"; "serve.partial";
      "serve.cache_hits"; "serve.breaker_trips"; "serve.request_seconds";
    ];
  Alcotest.(check bool) "requests counted" true
    (Option.value (Telemetry.Metrics.counter_value "serve.requests") ~default:0
    > 0);
  let prom = Telemetry.Export.prometheus_string () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " exported") true (find_sub prom n <> None))
    [
      "conquer_serve_requests"; "conquer_serve_shed";
      "conquer_serve_cache_hits"; "conquer_serve_breaker_trips";
      "conquer_serve_request_seconds";
    ];
  (* the latency histogram is live: quantiles are ordered and positive *)
  match
    List.find_opt
      (fun (s : Telemetry.Metrics.sample) -> s.name = "serve.request_seconds")
      (Telemetry.Metrics.snapshot ())
  with
  | Some { data = Telemetry.Metrics.Histogram_value hs; _ } when hs.hs_total > 0
    ->
    let p50 = Telemetry.Metrics.histogram_quantile hs 0.5 in
    let p99 = Telemetry.Metrics.histogram_quantile hs 0.99 in
    Alcotest.(check bool) "p50 positive" true (p50 > 0.0);
    Alcotest.(check bool) "quantiles ordered" true (p50 <= p99)
  | _ -> Alcotest.fail "serve.request_seconds has no observations"

(* ---- the chaos soak ---- *)

let test_chaos_soak () =
  (* generation -> expected rows per query; written by the saver
     domain, read by the clients, hence the lock *)
  let gen_expected = Hashtbl.create 8 in
  let exp_lock = Mutex.create () in
  let record_expected gen db =
    let rows = expected_rows db in
    Mutex.lock exp_lock;
    Hashtbl.replace gen_expected gen rows;
    Mutex.unlock exp_lock
  in
  let lookup_expected gen =
    Mutex.lock exp_lock;
    let r = Hashtbl.find_opt gen_expected gen in
    Mutex.unlock exp_lock;
    r
  in
  record_expected 1 fixture;
  let wrong = ref [] in
  let wrong_lock = Mutex.create () in
  let complain fmt =
    Printf.ksprintf
      (fun msg ->
        Mutex.lock wrong_lock;
        wrong := msg :: !wrong;
        Mutex.unlock wrong_lock)
      fmt
  in
  (* a complete 200 must carry exactly the direct [Clean.answers] of
     the snapshot of the generation it claims *)
  let check_complete_answer sql body =
    if not (body_flag body "partial") then begin
      let gen = body_generation body in
      match lookup_expected gen with
      | None -> complain "response claims unknown generation %d" gen
      | Some expected ->
        let want = List.assoc sql expected in
        let got = body_rows body in
        if got <> want then
          complain "wrong answer for %S at generation %d: %s <> %s" sql gen got
            want
    end
  in
  let config =
    { base_config with concurrency = 4; queue_capacity = 8; breaker_threshold = 3 }
  in
  let statuses = Array.make 600 0 in
  let phase nclients per_client worker =
    let domains =
      List.init nclients (fun c ->
          Domain.spawn (fun () ->
              for i = 0 to per_client - 1 do
                worker c i
              done))
    in
    List.iter Domain.join domains
  in
  let (), report =
    with_server ~config fixture (fun dir _t port ->
        let record slot outcome =
          (match outcome with
          | Resp { status = (200 | 400 | 408 | 503) as s; _ } ->
            statuses.(slot) <- s
          | Resp { status; r_body; _ } ->
            complain "unexpected status %d: %s" status r_body
          | Conn_error _ -> statuses.(slot) <- -1);
          outcome
        in
        (* phase A: 160 concurrent well-behaved requests, no faults —
           every one must come back 200 with the right rows *)
        phase 8 20 (fun c i ->
            let slot = (c * 20) + i in
            let sql = List.nth fast_queries (i mod 3) in
            match record slot (client port ~body:sql "/query") with
            | Resp { status = 200; r_body; _ } ->
              check_complete_answer sql r_body
            | Resp { status; r_body; _ } ->
              complain "phase A status %d: %s" status r_body
            | Conn_error e -> complain "phase A connection error: %s" e);
        (* phase B: 64 requests mixing heavy short-deadline queries,
           tiny budgets, and rude disconnecting clients *)
        phase 8 8 (fun c i ->
            let slot = 160 + (c * 8) + i in
            match i mod 4 with
            | 0 -> (
              let started = Unix.gettimeofday () in
              let o =
                record slot
                  (client port ~body:slow_sql
                     "/query?mode=original&deadline_ms=1000")
              in
              let elapsed = Unix.gettimeofday () -. started in
              if elapsed > 2.0 then
                complain "deadline overrun: %.3fs for a 1s deadline" elapsed;
              match o with
              | Resp { status = 200; _ } -> () (* partial or complete: fine *)
              | Resp { status = 408 | 503; _ } -> ()
              | Resp { status; _ } -> complain "phase B status %d" status
              | Conn_error e -> complain "phase B connection error: %s" e)
            | 1 ->
              fire_and_hangup port "/query?mode=original&deadline_ms=20000";
              statuses.(slot) <- 0
            | _ -> (
              let sql = List.nth fast_queries (i mod 3) in
              match
                record slot (client port ~body:sql "/query?budget_rows=3")
              with
              | Resp { status = 200; r_body; _ } ->
                check_complete_answer sql r_body
              | Resp { status = 503; _ } -> ()
              | Resp { status; _ } -> complain "phase B status %d" status
              | Conn_error e -> complain "phase B connection error: %s" e));
        (* phase C: live re-commits concurrent with 96 readers — every
           complete answer must match the generation it names.  The
           saver records the expected answers BEFORE committing (one
           sequential saver, so the post-save generation is known), so
           a reader can never observe a generation it cannot check. *)
        let saver =
          Domain.spawn (fun () ->
              for k = 1 to 2 do
                Unix.sleepf 0.05;
                let db = variant k in
                record_expected (Store.generation dir + 1) db;
                Store.save dir db
              done)
        in
        phase 8 12 (fun c i ->
            let slot = 224 + (c * 12) + i in
            let sql = List.nth fast_queries (i mod 3) in
            match record slot (client port ~body:sql "/query") with
            | Resp { status = 200; r_body; _ } ->
              check_complete_answer sql r_body
            | Resp { status = 503; _ } -> ()
            | Resp { status; r_body; _ } ->
              complain "phase C status %d: %s" status r_body
            | Conn_error e -> complain "phase C connection error: %s" e);
        Domain.join saver)
  in
  (match !wrong with
  | [] -> ()
  | msgs ->
    Alcotest.failf "soak found %d violation(s):\n%s" (List.length msgs)
      (String.concat "\n" msgs));
  let total = Array.fold_left (fun n s -> if s <> 0 then n + 1 else n) 0 statuses in
  Alcotest.(check bool)
    (Printf.sprintf "soak exercised %d requests" total)
    true (total >= 200);
  let ok = Array.fold_left (fun n s -> if s = 200 then n + 1 else n) 0 statuses in
  Alcotest.(check bool)
    (Printf.sprintf "most requests answered 200 (%d/%d)" ok total)
    true (ok * 10 >= total * 7);
  Alcotest.(check bool) "server drained after the soak" true
    report.Server.Serve.drained

let () =
  Alcotest.run "serve"
    [
      ( "units",
        [
          Alcotest.test_case "cache FIFO semantics" `Quick test_cache_fifo;
          Alcotest.test_case "breaker transitions" `Quick
            test_breaker_transitions;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantile;
          Alcotest.test_case "query-log records round-trip" `Quick
            test_querylog_roundtrip;
          Alcotest.test_case "result encoder matches the old bytes" `Quick
            test_result_encoder;
          Alcotest.test_case "create rejects concurrency 0" `Quick
            (rejects_config "concurrency 0"
               { base_config with concurrency = 0 });
          Alcotest.test_case "create rejects queue 0" `Quick
            (rejects_config "queue 0" { base_config with queue_capacity = 0 });
          Alcotest.test_case "create rejects deadline 0" `Quick
            (rejects_config "deadline 0"
               { base_config with default_deadline = 0.0 });
          Alcotest.test_case "create rejects negative deadline" `Quick
            (rejects_config "deadline -1s"
               { base_config with default_deadline = -1.0 });
          Alcotest.test_case "create rejects max deadline 0" `Quick
            (rejects_config "max deadline 0"
               { base_config with max_deadline = 0.0 });
          Alcotest.test_case "create rejects row budget 0" `Quick
            (rejects_config "budget rows 0"
               { base_config with default_budget_rows = Some 0 });
        ] );
      ( "tracing",
        [
          Alcotest.test_case "sampled trace covers the wall-clock" `Quick
            test_trace_capture_and_coverage;
          Alcotest.test_case "trace integrity across 4 worker domains" `Quick
            test_trace_integrity_across_domains;
          Alcotest.test_case "slow queries promote to span dumps" `Quick
            test_slow_query_promotion;
          Alcotest.test_case "query log over /debug/querylog" `Quick
            test_querylog_over_http;
          Alcotest.test_case "/debug/requests shows in-flight work" `Quick
            test_debug_requests_inflight;
          Alcotest.test_case "rate 0 retains nothing" `Quick
            test_tracing_off_retains_nothing;
          Alcotest.test_case "query-log file sink" `Quick
            test_querylog_file_sink;
          Alcotest.test_case "trace sampling leaves answers identical" `Quick
            test_trace_sampling_invisible;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "endpoints and differential answers" `Quick
            test_endpoints_and_answers;
          Alcotest.test_case "tiny budget yields partial, uncached" `Quick
            test_partial_on_tiny_budget;
          Alcotest.test_case "deadline yields partial or 408 in 2x" `Quick
            test_deadline_partial_or_408;
          Alcotest.test_case "burst sheds with Retry-After" `Quick
            test_shed_under_burst;
          Alcotest.test_case "client disconnect cancels the query" `Quick
            test_client_disconnect_cancels;
          Alcotest.test_case "commits invalidate the result cache" `Quick
            test_cache_invalidation_on_commit;
          Alcotest.test_case "POST /update commits and invalidates" `Quick
            test_update_endpoint;
          Alcotest.test_case "update compaction threshold" `Quick
            test_update_compaction_threshold;
          Alcotest.test_case "restart serves the same answers" `Quick
            test_restart_keeps_answers;
          Alcotest.test_case "concurrent updates serialize" `Quick
            test_concurrent_updates_serialize;
          Alcotest.test_case "breaker trips on store faults and heals" `Quick
            test_breaker_trips_and_recovers;
          Alcotest.test_case "graceful drain completes in-flight work" `Quick
            test_graceful_drain_clean;
          Alcotest.test_case "forced drain cancels in bounded time" `Quick
            test_forced_drain_cancels;
          Alcotest.test_case "kept answers equal a cacheless daemon's"
            `Quick test_retention_matches_fresh;
        ] );
      ( "soak",
        [ Alcotest.test_case "chaos soak" `Slow test_chaos_soak ] );
      ( "metrics",
        [
          Alcotest.test_case "serve counters surfaced" `Quick
            test_metrics_surface;
        ] );
    ]
