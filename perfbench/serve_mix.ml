(* serve-readwrite: the production path.  [conquer serve] runs at its
   default configuration as a child process over a store of sf 1 and
   inconsistency factor 3.  One closed-loop connection sends a seeded
   request stream: every 50th request is a single-op reassign
   POST /update on a random cluster, the rest are POST /query over the
   twelve Figure 8 queries other than Q9 (whose ~0.8 s misses would
   form a third latency cluster at the p99 cut-off).  Each update bumps
   the store generation and so invalidates the result cache, which
   keeps the hit share near 75%. *)

open Util

let sf = 1.0
let inconsistency = 3
let setup_reps = 5
let update_every = 50
let min_updates = 48 (* three compaction cycles at the daemon's compact_every = 16 *)
let compact_every = 16
let min_reads = 1000 (* so that p99 has at least ten samples beyond it *)
let max_load_seconds = 120.0
let host = "127.0.0.1"

let queries =
  Array.of_list (List.filter (fun (q : Tpch.Queries.query) -> q.qid <> 9) Tpch.Queries.all)

(* ---- the daemon, as a child process ---- *)

type daemon = { pid : int; port : int; out : Unix.file_descr }

(* the port from the daemon's "listening on HOST:PORT (store ...)" line *)
let read_port fd deadline =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let marker = "listening on " in
  let rec go () =
    let s = Buffer.contents buf in
    match find_sub s marker with
    | Some i when String.contains_from s i '\n' ->
      let start = i + String.length marker in
      let stop = String.index_from s start ' ' in
      let colon = String.rindex_from s stop ':' in
      int_of_string (String.sub s (colon + 1) (stop - colon - 1))
    | _ ->
      let remaining = deadline -. now () in
      if remaining <= 0.0 then failwith "conquer serve did not print its port";
      (match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> ()
      | _ ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "conquer serve exited before listening";
        Buffer.add_subbytes buf chunk 0 n);
      go ()
  in
  go ()

(* spawn the daemon; returns it and the seconds until /readyz said 200 *)
let start_daemon ~conquer dir =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = spawn ~stdout:wr [| conquer; "serve"; "-d"; dir; "-p"; "0" |] in
  Unix.close wr;
  let deadline = t0 +. 60.0 in
  let port = read_port rd deadline in
  let rec ready () =
    if now () > deadline then failwith "conquer serve never became ready";
    match Server.Http.request ~host ~port ~timeout:5.0 "/readyz" with
    | { status = 200; _ } -> ()
    | _ | (exception Unix.Unix_error _) ->
      Unix.sleepf 0.002;
      ready ()
  in
  ready ();
  ({ pid; port; out = rd }, now () -. t0)

(* SIGTERM and wait for the drain; [None] when it had to be killed *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let deadline = now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid);
      None
    | _, status -> Some status
  in
  let status = wait () in
  forget_child d.pid;
  Unix.close d.out;
  status

(* Prometheus samples of /metrics, by series name *)
let scrape port =
  let body = (Server.Http.request ~host ~port "/metrics").r_body in
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i -> (
          match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | Some v -> Hashtbl.replace tbl (String.sub line 0 i) v
          | None -> ())
        | None -> ())
    (String.split_on_char '\n' body);
  tbl

let sample tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0.0

(* ---- responses ---- *)

(* The raw token after the last ["key":] of a response body.  The
   scalar fields of /query and /update bodies come after the rows, and
   a quote inside a JSON string is escaped, so the last match is the
   field. *)
let field body key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length body and m = String.length pat in
  let rec at i j = j = m || (body.[i + j] = pat.[j] && at i (j + 1)) in
  let rec back i = if i < 0 then None else if at i 0 then Some (i + m) else back (i - 1) in
  match back (n - m) with
  | None -> None
  | Some start ->
    let stop = ref start in
    while !stop < n && body.[!stop] <> ',' && body.[!stop] <> '}' do
      incr stop
    done;
    Some (String.sub body start (!stop - start))

let int_field body key = Option.bind (field body key) int_of_string_opt
let float_field body key = Option.bind (field body key) float_of_string_opt
let bool_field body key = field body key = Some "true"

(* Just enough JSON to read the rows of a /query body.  Strings and
   numbers keep their source text, so cells compare exactly as the
   daemon printed them. *)
type json = Raw of string | Arr of json list | Obj of (string * json) list

let parse_json s =
  let pos = ref 0 and n = String.length s in
  let bad () = failwith (Printf.sprintf "malformed JSON at byte %d" !pos) in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (incr pos; ws ())
  in
  let rec value () =
    ws ();
    if !pos >= n then bad ();
    match s.[!pos] with
    | '[' ->
      incr pos;
      Arr (items ']' value)
    | '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             let k = match value () with Raw k -> k | _ -> bad () in
             ws ();
             if !pos >= n || s.[!pos] <> ':' then bad ();
             incr pos;
             (String.sub k 1 (String.length k - 2), value ())))
    | '"' ->
      let start = !pos in
      incr pos;
      while !pos < n && s.[!pos] <> '"' do
        if s.[!pos] = '\\' then incr pos;
        incr pos
      done;
      if !pos >= n then bad ();
      incr pos;
      Raw (String.sub s start (!pos - start))
    | _ ->
      let start = !pos in
      while !pos < n && not (String.contains ",]} \n" s.[!pos]) do
        incr pos
      done;
      if !pos = start then bad ();
      Raw (String.sub s start (!pos - start))
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    ws ();
    if !pos < n && s.[!pos] = close then (incr pos; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        if !pos >= n then bad ();
        if s.[!pos] = ',' then (incr pos; more acc)
        else if s.[!pos] = close then (incr pos; List.rev acc)
        else bad ()
      in
      more []
  in
  value ()

(* the cell text the daemon prints for a value *)
let cell_json = function
  | Dirty.Value.Null -> "null"
  | Dirty.Value.Bool b -> string_of_bool b
  | Dirty.Value.Int i -> string_of_int i
  | Dirty.Value.Float f -> Telemetry.Export.json_float f
  | Dirty.Value.String s -> Telemetry.Export.json_string s
  | Dirty.Value.Date _ as v -> Telemetry.Export.json_string (Dirty.Value.to_string v)

let by_key rows = List.sort (fun (a, _) (b, _) -> compare a b) rows

(* (key cells, clean_prob) of every answer row, sorted by key *)
let reference_rows rel =
  by_key
    (Array.to_list
       (Array.map
          (fun row ->
            let n = Array.length row in
            ( String.concat "," (List.map cell_json (Array.to_list (Array.sub row 0 (n - 1)))),
              Conquer.Clean.answer_probability rel row ))
          (Dirty.Relation.rows rel)))

let served_rows body =
  match parse_json body with
  | Obj fields -> (
    match List.assoc_opt "rows" fields with
    | Some (Arr rows) ->
      by_key
        (List.map
           (function
             | Arr cells -> (
               let texts = List.map (function Raw t -> t | _ -> "?") cells in
               match List.rev texts with
               | prob :: rkey ->
                 ( String.concat "," (List.rev rkey),
                   Option.value (float_of_string_opt prob) ~default:nan )
               | [] -> ("", nan))
             | _ -> ("", nan))
           rows)
    | _ -> failwith "response has no rows")
  | _ -> failwith "response is not a JSON object"

(* Keys must match exactly; probabilities to the 9 significant digits
   the daemon prints, never bitwise. *)
let compare_answer ~what reference body fail =
  match served_rows body with
  | exception Failure msg -> fail (Printf.sprintf "%s: %s" what msg)
  | served ->
    let close a b = Float.abs (a -. b) <= 1e-8 *. Float.max (Float.abs a) (Float.abs b) in
    if List.length served <> List.length reference then
      fail
        (Printf.sprintf "%s: %d rows served, %d expected" what (List.length served)
           (List.length reference))
    else
      match
        List.find_opt
          (fun ((ks, ps), (kr, pr)) -> ks <> kr || not (close ps pr))
          (List.combine served reference)
      with
      | None -> ()
      | Some ((ks, ps), (kr, pr)) ->
        fail (Printf.sprintf "%s: served (%s, %.17g) but expected (%s, %.17g)" what ks ps kr pr)

(* ---- the request stream ---- *)

type request = Read of int | Update of Dirty.Delta.op

(* request [i] of the stream depends only on the seed and [i] *)
let request_of ~seed ~clusters i =
  let st = Random.State.make [| seed; i |] in
  if i mod update_every = update_every - 1 then
    let table, cluster, k = clusters.(Random.State.int st (Array.length clusters)) in
    let weights = Array.init k (fun _ -> float_of_int (1 + Random.State.int st 9)) in
    Update (Dirty.Delta.Reassign { table; cluster; weights })
  else Read (Random.State.int st (Array.length queries))

(* every cluster with at least two tuples, in a fixed order *)
let cluster_list db =
  let l =
    List.concat_map
      (fun (t : Dirty.Dirty_db.table) ->
        Dirty.Cluster.fold
          (fun id members acc ->
            let k = List.length members in
            if k >= 2 then (t.name, id, k) :: acc else acc)
          t.clustering [])
      (Dirty.Dirty_db.tables db)
  in
  let a = Array.of_list l in
  Array.sort
    (fun (t1, c1, _) (t2, c2, _) ->
      match compare t1 t2 with 0 -> Dirty.Value.compare c1 c2 | c -> c)
    a;
  a

type record = {
  index : int;
  req : request;
  sent : float;
  latency : float;  (** client round trip, seconds *)
  status : int;  (** 0 when the exchange itself failed *)
  body : string;
}

let op_body op = Dirty.Csv.render_line (Dirty.Delta.op_to_row op) ^ "\n"

let exchange ~port = function
  | Read q -> Server.Http.request ~host ~port ~body:queries.(q).sql "/query"
  | Update op -> Server.Http.request ~host ~port ~body:(op_body op) "/update"

(* The closed loop: one connection, the next request goes out when the
   previous answer is in.  One connection, not nproc: on a 2-core host a
   second one puts a concurrent miss (and the daemon's stop-the-world
   minor collections) under half the hits, and the hit latency splits
   into two levels whose mix moves from run to run. *)
let client ~port ~seed ~clusters ~seconds ~t_start =
  let out = ref [] and stop = ref false and index = ref 0 in
  let reads = ref 0 and updates = ref 0 in
  while not !stop do
    let index = (incr index; !index - 1) in
    let req = request_of ~seed ~clusters index in
    let sent = now () in
    let status, body =
      match exchange ~port req with
      | r -> (r.status, r.r_body)
      | exception e -> (0, Printexc.to_string e)
    in
    let latency = now () -. sent in
    if status = 200 then incr (match req with Read _ -> reads | Update _ -> updates);
    out := { index; req; sent; latency; status; body } :: !out;
    let elapsed = now () -. t_start in
    if
      (elapsed >= seconds && !reads >= min_reads && !updates >= min_updates)
      || elapsed > max_load_seconds
    then stop := true
  done;
  !out

(* ---- the in-process replay of the update batches (traced run) ---- *)

let replay dir batches =
  Telemetry.Control.enable ();
  let bytes () =
    Telemetry.Metrics.counter_value "dirty.store.bytes_written"
    |> Option.value ~default:0 |> float_of_int
  in
  let db = ref (Dirty.Store.load dir) in
  let out =
    List.map
      (fun (generation, op) ->
        let attrs = [ ("generation", string_of_int generation) ] in
        let span name f = Spans.time ~trace:generation ~parent:(-1) ~attrs name f in
        let outcome, t_apply = span "update.delta_apply" (fun () -> Dirty.Delta.apply !db [ op ]) in
        let b0 = bytes () in
        let committed, t_commit =
          span "update.commit" (fun () ->
              if Dirty.Store.delta_chain_length dir + 1 >= compact_every then begin
                Dirty.Store.save dir outcome.Dirty.Delta.db;
                Dirty.Store.generation dir
              end
              else Dirty.Store.commit_delta dir [ op ])
        in
        let written = bytes () -. b0 in
        let _, t_rebuild =
          span "update.session_rebuild" (fun () -> Conquer.Clean.create outcome.db)
        in
        db := outcome.db;
        (generation, committed, t_apply, t_commit, t_rebuild, written))
      batches
  in
  Telemetry.Control.disable ();
  out

(* ---- the workload ---- *)

let run ~conquer ~seed ~seconds ~trace =
  let tmp = fresh_temp_dir "serve-readwrite" in
  let dir = Filename.concat tmp "store" in
  generate ~sf ~inconsistency ~seed dir;
  let replay_dir = Filename.concat tmp "replay" in
  if trace then generate ~sf ~inconsistency ~seed replay_dir;
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  (* in-process references: answers at the initial generation, and the
     clusters the updates pick from *)
  let db0 = Dirty.Store.load dir in
  let clusters = cluster_list db0 in
  let initial =
    let s = Conquer.Clean.create db0 in
    Array.map
      (fun (q : Tpch.Queries.query) -> reference_rows (Conquer.Clean.answers s q.sql))
      queries
  in
  let ref_counts = Array.map List.length initial in
  (* set-up: spawn until /readyz, several times; the last one serves *)
  let daemon = ref None and setups = ref [] in
  for _ = 1 to setup_reps do
    Option.iter
      (fun d -> if stop_daemon d <> Some (Unix.WEXITED 0) then fail "set-up daemon did not drain")
      !daemon;
    let d, t = start_daemon ~conquer dir in
    daemon := Some d;
    setups := t :: !setups
  done;
  let d = Option.get !daemon in
  let port = d.port in
  (* untimed warm-up: one read of each query, checked in full *)
  Array.iteri
    (fun i (q : Tpch.Queries.query) ->
      let r = Server.Http.request ~host ~port ~body:q.sql "/query" in
      if r.status <> 200 then fail (Printf.sprintf "warm-up q%02d: status %d" q.qid r.status)
      else compare_answer ~what:(Printf.sprintf "initial q%02d" q.qid) initial.(i) r.r_body fail)
    queries;
  let before = scrape port in
  let t_start = now () in
  let records = List.rev (client ~port ~seed ~clusters ~seconds ~t_start) in
  let load_seconds = now () -. t_start in
  if load_seconds > max_load_seconds then
    fail "the load phase did not reach its minimum reads and updates in time";
  let after = scrape port in
  let peak = peak_rss_mb (Some d.pid) in
  let ok = List.filter (fun r -> r.status = 200) records in
  let read_recs = List.filter (fun r -> match r.req with Read _ -> true | Update _ -> false) ok in
  let update_recs = List.filter (fun r -> match r.req with Update _ -> true | Read _ -> false) ok in
  let failed = List.length records - List.length ok in
  (* a refused or failed request counts in [failed] and error_rate; the
     gates below judge the answers that came back *)
  List.iteri
    (fun i r ->
      if i < 5 then
        Printf.eprintf "perfbench: request %d failed: status %d: %s\n%!" r.index r.status
          (String.sub r.body 0 (min 200 (String.length r.body))))
    (List.filter (fun r -> r.status <> 200) records);
  (* every 200 read is complete and has the reference's row count *)
  List.iter
    (fun r ->
      match r.req with
      | Read q ->
        if bool_field r.body "partial" then
          fail (Printf.sprintf "request %d: partial answer" r.index);
        if int_field r.body "row_count" <> Some ref_counts.(q) then
          fail
            (Printf.sprintf "request %d (q%02d): row_count %s, expected %d" r.index
               queries.(q).qid
               (Option.value (field r.body "row_count") ~default:"missing")
               ref_counts.(q))
      | Update _ -> ())
    read_recs;
  (* updates get distinct generations, increasing in request order *)
  let gen r = Option.value (int_field r.body "generation") ~default:(-1) in
  let gens = List.map gen update_recs in
  let rec increasing = function a :: (b :: _ as rest) -> a < b && increasing rest | _ -> true in
  if List.mem (-1) gens || not (increasing gens) then
    fail "updates did not return distinct, increasing generations";
  let last_gen = List.fold_left max (Dirty.Store.generation dir) gens in
  let acked =
    List.sort compare
      (List.filter_map
         (fun r -> match r.req with Update op -> Some (gen r, op) | Read _ -> None)
         update_recs)
  in
  (* the final state: the initial snapshot with every acknowledged
     update applied in generation order, as the daemon holds it *)
  let final_db =
    List.fold_left (fun db (_, op) -> (Dirty.Delta.apply db [ op ]).Dirty.Delta.db) db0 acked
  in
  let final_session = Conquer.Clean.create final_db in
  Array.iter
    (fun (q : Tpch.Queries.query) ->
      let r = Server.Http.request ~host ~port ~body:q.sql "/query" in
      let what = Printf.sprintf "final q%02d" q.qid in
      if r.status <> 200 then fail (Printf.sprintf "%s: status %d" what r.status)
      else begin
        if int_field r.r_body "generation" <> Some last_gen then
          fail (Printf.sprintf "%s: served generation is not the last acknowledged one" what);
        compare_answer ~what (reference_rows (Conquer.Clean.answers final_session q.sql)) r.r_body
          fail
      end)
    queries;
  (match stop_daemon d with
  | Some (Unix.WEXITED 0) -> ()
  | _ -> fail "the daemon did not exit 0 after SIGTERM");
  (* durability: a fresh load reaches the last acknowledged generation *)
  if Dirty.Store.generation dir <> last_gen then
    fail
      (Printf.sprintf "store generation %d after drain, last acknowledged %d"
         (Dirty.Store.generation dir) last_gen);
  let reloaded, t_load = timed (fun () -> Dirty.Store.load dir) in
  let _, t_create = timed (fun () -> Conquer.Clean.create reloaded) in
  if db_digests reloaded <> db_digests final_db then
    fail "the reloaded store does not hold every acknowledged update";
  (* metrics *)
  let lat_ms rs = List.map (fun r -> ms r.latency) rs in
  let read_ms = lat_ms read_recs in
  let reads_n = List.length read_recs in
  let setup = Metric.of_samples "setup_s" "s" Lower !setups in
  let rss = Metric.scalar "peak_rss_mb" "MB" Lower peak in
  let p50 = Metric.of_samples "query_p50_ms" "ms" Lower read_ms in
  let p99 = Metric.scalar ~n:reads_n "query_p99_ms" "ms" Lower (Metric.percentile read_ms 99.0) in
  let hits, misses = List.partition (fun r -> bool_field r.body "cached") read_recs in
  let hit_p50 = Metric.of_samples "hit_p50_ms" "ms" Lower (lat_ms hits) in
  (* A round trip grows with the size of its answer, so the p50 of all
     hits (or misses) moves with the query mix of the seed; the geomean
     over queries of each query's median does not. *)
  let geo_by_query name rs =
    let per_query =
      List.filter_map
        (fun q ->
          match List.filter (fun r -> r.req = Read q) rs with
          | [] -> None
          | rs -> Some (Metric.median (lat_ms rs)))
        (List.init (Array.length queries) Fun.id)
    in
    Metric.scalar ~n:(List.length rs) name "ms" Lower (Metric.geomean per_query)
  in
  let hit_geo = geo_by_query "hit_geomean_ms" hits in
  let miss_geo = geo_by_query "miss_geomean_ms" misses in
  let upd = Metric.of_samples "update_p50_ms" "ms" Lower (lat_ms update_recs) in
  let rps =
    Metric.scalar ~n:(List.length ok) "throughput_rps" "1/s" Higher
      (float_of_int (List.length ok) /. load_seconds)
  in
  let errors =
    Metric.scalar ~n:(List.length records) "error_rate" "ratio" Lower
      (float_of_int failed /. float_of_int (List.length records))
  in
  let layers =
    if not trace then []
    else begin
      let wire =
        List.filter_map
          (fun r -> Option.map (fun e -> ms r.latency -. e) (float_field r.body "elapsed_ms"))
          read_recs
      in
      let delta name = sample after name -. sample before name in
      let count name v = Metric.scalar ~n:reads_n name "count" Lower v in
      let replayed = replay replay_dir acked in
      List.iter
        (fun (g, committed, _, _, _, _) ->
          if g <> committed then
            fail (Printf.sprintf "replay committed generation %d for the daemon's %d" committed g))
        replayed;
      let upd_ms f = List.map (fun r -> ms (f r)) replayed in
      let n_upd = List.length replayed in
      List.iter
        (fun r ->
          Spans.add ~trace:r.index ~id:(Spans.fresh ()) ~parent:(-1)
            ~attrs:
              [
                ("cached", string_of_bool (bool_field r.body "cached"));
                ( "query",
                  match r.req with
                  | Read q -> Printf.sprintf "q%02d" queries.(q).qid
                  | Update _ -> "update" );
              ]
            (match r.req with Read _ -> "serve.read" | Update _ -> "serve.update")
            r.sent (r.sent +. r.latency))
        records;
      [
        Metric.rename "server.hit_p50_ms" hit_p50;
        Metric.of_samples "server.wire_ms" "ms" Lower wire;
        Metric.of_samples "server.miss_p50_ms" "ms" Lower (lat_ms misses);
        Metric.scalar ~n:(List.length misses) "server.miss_p99_ms" "ms" Lower
          (Metric.percentile (lat_ms misses) 99.0);
        Metric.scalar
          ~n:(int_of_float (delta "conquer_engine_query_seconds_count"))
          "engine.query_s_per_miss" "s" Lower
          (delta "conquer_engine_query_seconds_sum" /. delta "conquer_engine_query_seconds_count");
        Metric.scalar ~n:reads_n "server.cache_hit_ratio" "ratio" Higher
          (float_of_int (List.length hits) /. float_of_int reads_n);
        Metric.of_samples "update.delta_apply_ms" "ms" Lower
          (upd_ms (fun (_, _, t, _, _, _) -> t));
        Metric.of_samples "update.commit_ms" "ms" Lower (upd_ms (fun (_, _, _, t, _, _) -> t));
        Metric.of_samples "update.session_rebuild_ms" "ms" Lower
          (upd_ms (fun (_, _, _, _, t, _) -> t));
        Metric.scalar ~n:n_upd "dirty.store.bytes_written_per_update" "bytes" Lower
          (List.fold_left (fun acc (_, _, _, _, _, b) -> acc +. b) 0.0 replayed
          /. float_of_int (max 1 n_upd));
        Metric.scalar ~n:n_upd "dirty.store.compactions" "count" Lower
          (float_of_int
             (List.length (List.filter (fun r -> bool_field r.body "compacted") update_recs)));
        count "server.shed" (delta "conquer_serve_shed_total");
        count "server.partial" (delta "conquer_serve_partial_total");
        count "server.internal_errors" (delta "conquer_serve_internal_errors_total");
        Metric.scalar "dirty.store.load_ms" "ms" Lower (ms t_load);
        Metric.scalar "conquer.session_create_ms" "ms" Lower (ms t_create);
      ]
    end
  in
  {
    Metric.report = [ setup; rss; p50; p99; hit_p50; hit_geo; miss_geo; upd; rps; errors ];
    e2e =
      [ setup; rss; Metric.rename "latency_ms" hit_geo; Metric.rename "throughput_per_s" rps ];
    layers;
    attempted = List.length records;
    failed;
    failures = List.rev !failures;
  }
