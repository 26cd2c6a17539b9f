(* The daemon proper: admission queue, worker pool, disconnect
   reaper, circuit-breaker-guarded store access, result cache, and
   the drain protocol.  See serve.mli for the behavioral contract and
   DESIGN.md §5h for the rationale. *)

(* ---- telemetry ---- *)

let m_requests =
  Telemetry.Metrics.counter "serve.requests" ~help:"query requests admitted"

let m_shed =
  Telemetry.Metrics.counter "serve.shed"
    ~help:"requests refused with 503 because the admission queue was full"

let m_cancelled =
  Telemetry.Metrics.counter "serve.cancelled"
    ~help:"queries cancelled (deadline, disconnect, or drain)"

let m_partial =
  Telemetry.Metrics.counter "serve.partial"
    ~help:"200 responses carrying a partial (budgeted) answer set"

let m_cache_hits =
  Telemetry.Metrics.counter "serve.cache_hits"
    ~help:"queries answered from the result cache"

let m_cache_retained =
  Telemetry.Metrics.counter "serve.cache_retained"
    ~help:
      "cached results re-tagged to the new generation by an update that \
       changed no table their query reads"

let m_cache_dropped =
  Telemetry.Metrics.counter "serve.cache_dropped"
    ~help:"cached results dropped by an update or a reload"

let m_internal =
  Telemetry.Metrics.counter "serve.internal_errors"
    ~help:"requests that ended in an unexpected exception (500)"

let m_updates =
  Telemetry.Metrics.counter "serve.updates"
    ~help:"update batches applied and committed"

let g_inflight =
  Telemetry.Metrics.gauge "serve.in_flight" ~help:"queries executing right now"

let g_queue =
  Telemetry.Metrics.gauge "serve.queue_depth" ~help:"requests waiting for a worker"

let m_slow =
  Telemetry.Metrics.counter "serve.slow_queries"
    ~help:"requests whose total latency crossed --slow-query-ms"

let m_traced =
  Telemetry.Metrics.counter "serve.traced"
    ~help:"requests whose span tree was retained in the trace ring"

let h_latency =
  Telemetry.Metrics.histogram "serve.request_seconds"
    ~help:"wall-clock seconds from accept to response"

(* ---- configuration ---- *)

type config = {
  host : string;
  port : int;
  concurrency : int;
  queue_capacity : int;
  default_deadline : float;
  max_deadline : float;
  default_budget_rows : int option;
  cache_capacity : int;
  breaker_threshold : int;
  compact_every : int;
  drain_deadline : float;
  retry_after : float;
  trace_sample : float;
  slow_query_ms : float option;
  trace_capacity : int;
  querylog_capacity : int;
  querylog_path : string option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    concurrency = 4;
    queue_capacity = 64;
    default_deadline = 5.0;
    max_deadline = 60.0;
    default_budget_rows = None;
    cache_capacity = 256;
    breaker_threshold = 3;
    compact_every = 16;
    drain_deadline = 5.0;
    retry_after = 1.0;
    trace_sample = 0.0;
    slow_query_ms = None;
    trace_capacity = 128;
    querylog_capacity = 512;
    querylog_path = None;
  }

(* ---- state ---- *)

type job = { fd : Unix.file_descr; enqueued_at : float }

(* what /debug/requests shows about a query that is executing right
   now; the reaper and the hard drain only need [if_fd]/[if_token] *)
type inflight = {
  if_fd : Unix.file_descr;
  if_token : Engine.Cancel.token;
  if_trace_id : string;
  if_sql : string;
  if_mode : string;
  if_enqueued_at : float;
  if_started_at : float;
}

(* A cache value with the store generation it is valid at and the
   tables its query reads (lowercased, sorted).  A hit requires the
   tag to equal the live generation, so a value computed over an older
   session is never served at a newer one. *)
type 'a entry = { value : 'a; generation : int; tables : string list }

type t = {
  cfg : config;
  dir : string;
  listen_fd : Unix.file_descr;
  bound_port : int;
  recovered : string list;
  (* admission queue *)
  qlock : Mutex.t;
  qcond : Condition.t;
  queue : job Queue.t;
  mutable draining : bool;
  mutable hard_drain : bool;
  (* store session, guarded by slock *)
  slock : Mutex.t;
  breaker : Breaker.t;
  mutable session : (int * Conquer.Clean.session) option;
  prepared : (string, (Sql.Ast.query * string) entry) Cache.t;
      (* the AST to run and its plan hash *)
  results : (string, (string * int) entry) Cache.t;
      (* the body prefix ({!result_core}) and row count *)
  (* observability: retained traces and the structured query log *)
  traces : Telemetry.Trace.ring;
  querylog : Querylog.t;
  (* in-flight queries, for the reaper, the hard drain, and
     /debug/requests *)
  ilock : Mutex.t;
  inflight : (int, inflight) Hashtbl.t;
  mutable next_id : int;
  active : int Atomic.t;
  reaper_stop : bool Atomic.t;
  force_cancelled : int Atomic.t;
  stop_requested : bool Atomic.t;
}

(* ---- small helpers ---- *)

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- JSON rendering ---- *)

(* one value as JSON, written straight into [buf] *)
let add_value_json buf v =
  match v with
  | Dirty.Value.Null -> Buffer.add_string buf "null"
  | Dirty.Value.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Dirty.Value.Int i -> Buffer.add_string buf (string_of_int i)
  | Dirty.Value.Float f -> Buffer.add_string buf (Telemetry.Export.json_float f)
  | Dirty.Value.String s -> Telemetry.Export.add_json_string buf s
  | Dirty.Value.Date _ ->
    Telemetry.Export.add_json_string buf (Dirty.Value.to_string v)

(* The cacheable prefix of a /query response body: the opening brace,
   columns, rows and row count.  [compose_body] appends the fields
   that vary per reply.  The buffer starts at a size estimated from
   the row count, so a large answer is rarely regrown. *)
let result_core rel =
  let rows = Dirty.Relation.rows rel in
  let names = Dirty.Schema.names (Dirty.Relation.schema rel) in
  let buf =
    Buffer.create (256 + (Array.length rows * (2 + (12 * List.length names))))
  in
  Buffer.add_string buf "{\"columns\":[";
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char buf ',';
      Telemetry.Export.add_json_string buf name)
    names;
  Buffer.add_string buf "],\"rows\":[";
  Array.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      Array.iteri
        (fun j v ->
          if j > 0 then Buffer.add_char buf ',';
          add_value_json buf v)
        row;
      Buffer.add_char buf ']')
    rows;
  Buffer.add_string buf "],\"row_count\":";
  Buffer.add_string buf (string_of_int (Array.length rows));
  Buffer.contents buf

(* the reply body as fragments: the (possibly cached) [core] is not
   copied here, only once into the response by {!Http.write_response} *)
let compose_body ~core ~generation ~truncated ~cancelled ~cached ~elapsed =
  [
    core;
    Printf.sprintf
      ",\"generation\":%d,\"partial\":%b,\"truncated\":%b,\"cancelled\":%b,\"cached\":%b,\"elapsed_ms\":%s}"
      generation (truncated || cancelled) truncated cancelled cached
      (Telemetry.Export.json_float (elapsed *. 1000.0));
  ]

let error_body detail =
  Printf.sprintf "{\"error\":%s}" (Telemetry.Export.json_string detail)

(* ---- construction ---- *)

(* with no worker, no queue slot, no time or no rows to answer in, the
   daemon would bind, admit and never answer (or answer only 408s and
   empty partials), so refuse before touching the store or a socket *)
let check_config (cfg : config) =
  if cfg.concurrency < 1 then
    invalid_arg
      (Printf.sprintf "concurrency must be at least 1, got %d" cfg.concurrency);
  if cfg.queue_capacity < 1 then
    invalid_arg
      (Printf.sprintf "queue capacity must be at least 1, got %d"
         cfg.queue_capacity);
  if not (cfg.default_deadline > 0.0) then
    invalid_arg
      (Printf.sprintf "default deadline must be positive, got %gs"
         cfg.default_deadline);
  if not (cfg.max_deadline > 0.0) then
    invalid_arg
      (Printf.sprintf "max deadline must be positive, got %gs" cfg.max_deadline);
  match cfg.default_budget_rows with
  | Some n when n < 1 ->
    invalid_arg (Printf.sprintf "row budget must be at least 1, got %d" n)
  | _ -> ()

let create ?(config = default_config) ~dir () =
  check_config config;
  Telemetry.Control.enable ();
  let recovered = Dirty.Store.recover dir in
  let db = Dirty.Store.load dir in
  let generation = Dirty.Store.generation dir in
  let session = Conquer.Clean.create db in
  let listen_fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt listen_fd SO_REUSEADDR true;
  (try
     Unix.bind listen_fd
       (ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen listen_fd 128
   with e ->
     close_quiet listen_fd;
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  {
    cfg = config;
    dir;
    listen_fd;
    bound_port;
    recovered;
    qlock = Mutex.create ();
    qcond = Condition.create ();
    queue = Queue.create ();
    draining = false;
    hard_drain = false;
    slock = Mutex.create ();
    breaker = Breaker.create ~threshold:config.breaker_threshold ();
    session = Some (generation, session);
    prepared = Cache.create ~capacity:config.cache_capacity;
    results = Cache.create ~capacity:config.cache_capacity;
    traces = Telemetry.Trace.ring_create ~capacity:config.trace_capacity;
    querylog =
      Querylog.create ~capacity:config.querylog_capacity
        ?path:config.querylog_path ();
    ilock = Mutex.create ();
    inflight = Hashtbl.create 64;
    next_id = 0;
    active = Atomic.make 0;
    reaper_stop = Atomic.make false;
    force_cancelled = Atomic.make 0;
    stop_requested = Atomic.make false;
  }

let port t = t.bound_port
let recovery_log t = t.recovered

(* ---- store session management ---- *)

(* The single chokepoint for store access.  Probes the committed
   generation on every query (one small read through Fault.Io — this
   is how commits by other writers reach the caches) and reloads the
   snapshot when it moved.  All failures feed the circuit breaker;
   while the breaker is open the probe is skipped entirely and the
   caller sheds. *)
(* losing the probe/reload race repeatedly is contention, not damage:
   it must surface as a retryable 503, never a 500 *)
exception Generation_unstable

let ensure_session_locked t =
  if not (Breaker.allow t.breaker) then
    Error "store circuit breaker open; retry later"
  else
    match
      let rec probe_and_load attempts =
        let generation = Dirty.Store.generation t.dir in
        match t.session with
        | Some (g, s) when g = generation -> (generation, s)
        | _ ->
          let db = Fault.Retry.with_retry (fun () -> Dirty.Store.load t.dir) in
          (* a commit can land between the probe and the load, which
             would label the newer snapshot with the older generation
             (and poison the result cache under that key) — re-probe
             and reload until the generation is stable around the
             load, giving up (retryably) under sustained writer
             pressure rather than spinning *)
          if Dirty.Store.generation t.dir <> generation then
            if attempts <= 1 then raise Generation_unstable
            else probe_and_load (attempts - 1)
          else begin
            let s = Conquer.Clean.create db in
            t.session <- Some (generation, s);
            (* another writer committed: which tables it changed is
               unknown here, so nothing carries over *)
            Telemetry.Metrics.inc ~n:(Cache.length t.results) m_cache_dropped;
            Cache.clear t.prepared;
            Cache.clear t.results;
            (generation, s)
          end
      in
      probe_and_load 5
    with
    | pair ->
      Breaker.success t.breaker;
      Ok pair
    | exception Generation_unstable ->
      (* not a store failure: don't count against the breaker *)
      Error "store generation moving under concurrent commits; retry later"
    | exception e ->
      Breaker.failure t.breaker;
      Error (Printf.sprintf "store unavailable: %s" (Printexc.to_string e))

let ensure_session t = locked t.slock @@ fun () -> ensure_session_locked t

(* Carry the entries valid at [prev] over to [next] when their query
   reads none of the [changed] tables, and drop the rest (including
   anything still tagged with an older generation).  Exact: an update
   leaves every other table physically shared with its predecessor,
   and {!Conquer.Clean.derive} reuses their indexes and statistics, so
   plans and answers over them are bitwise unchanged.  Returns how
   many entries were kept and dropped. *)
let carry_over cache ~prev ~next ~changed =
  let kept = ref 0 and dropped = ref 0 in
  Cache.filter_map_inplace cache (fun _ e ->
      if e.generation = prev
         && not (List.exists (fun table -> List.mem table changed) e.tables)
      then begin
        incr kept;
        Some { e with generation = next }
      end
      else begin
        incr dropped;
        None
      end);
  (!kept, !dropped)

(* The write path: validate and apply the batch against the current
   in-memory snapshot, persist it (a delta commit, or a compacting
   full save once the chain reaches [compact_every]), and swap in a
   session derived from the live one — the daemon never reloads what
   it just applied, and rebuilds only the indexes and statistics of
   the columns the batch changed.
   Serialized by [slock] with the probe/reload path, so readers always
   pair the right generation with the right session. *)
let apply_update t batch =
  locked t.slock @@ fun () ->
  match ensure_session_locked t with
  | Error detail -> Error (`Unavailable detail)
  | Ok (prev, session) -> (
    match Dirty.Delta.apply (Conquer.Clean.dirty_db session) batch with
    | exception Dirty.Delta.Invalid msg -> Error (`Invalid msg)
    | outcome -> (
      let compact =
        Dirty.Store.delta_chain_length t.dir + 1 >= t.cfg.compact_every
      in
      match
        (* the store does its own transient-fault retries through
           Fault.Io; retrying the whole commit here could apply the
           batch twice if a failure landed after the CURRENT flip *)
        if compact then begin
          Dirty.Store.save t.dir outcome.Dirty.Delta.db;
          Dirty.Store.generation t.dir
        end
        else Dirty.Store.commit_delta t.dir batch
      with
      | exception e ->
        Breaker.failure t.breaker;
        Error
          (`Unavailable
            (Printf.sprintf "store unavailable: %s" (Printexc.to_string e)))
      | generation ->
        Breaker.success t.breaker;
        t.session <-
          Some (generation, Conquer.Clean.derive session outcome.Dirty.Delta.db);
        (* every op changes its own table only *)
        let changed =
          List.sort_uniq String.compare
            (List.map
               (fun op -> String.lowercase_ascii (Dirty.Delta.op_table op))
               batch)
        in
        ignore (carry_over t.prepared ~prev ~next:generation ~changed);
        let retained, dropped =
          carry_over t.results ~prev ~next:generation ~changed
        in
        Telemetry.Metrics.inc ~n:retained m_cache_retained;
        Telemetry.Metrics.inc ~n:dropped m_cache_dropped;
        Telemetry.Span.add_attr "retained" (string_of_int retained);
        Telemetry.Span.add_attr "dropped" (string_of_int dropped);
        Telemetry.Metrics.inc m_updates;
        Ok (generation, outcome, compact)))

(* ---- request handling ---- *)

type mode = Rewritten | Original

let mode_tag = function Rewritten -> "rewritten" | Original -> "original"

(* Per-request scratchpad the query handler fills in as it learns
   things (normalized SQL, plan hash, row counts, engine time); the
   connection epilogue turns it into the query-log record.  The
   handler communicates its response by raising {!Reply}, so these
   facts can't travel in a return value. *)
type reqctx = {
  mutable cx_is_query : bool;
  mutable cx_sql : string;
  mutable cx_plan_hash : string;
  mutable cx_generation : int;
  mutable cx_mode : string;
  mutable cx_rows : int;
  mutable cx_truncated : bool;
  mutable cx_cancelled : bool;
  mutable cx_cached : bool;
  mutable cx_exec : float;  (* seconds inside the engine *)
}

let new_reqctx () =
  {
    cx_is_query = false;
    cx_sql = "";
    cx_plan_hash = "";
    cx_generation = -1;
    cx_mode = "rewritten";
    cx_rows = 0;
    cx_truncated = false;
    cx_cancelled = false;
    cx_cached = false;
    cx_exec = 0.0;
  }

(* the body travels as fragments, written back to back (see
   {!compose_body}) *)
exception Reply of int * (string * string) list * string list

let reply ?(headers = []) status body = raise (Reply (status, headers, [ body ]))

let parse_params t req =
  let deadline =
    match Http.param req "deadline_ms" with
    | None -> t.cfg.default_deadline
    | Some v -> (
      match float_of_string_opt v with
      | Some ms when ms > 0.0 -> Float.min (ms /. 1000.0) t.cfg.max_deadline
      | _ -> reply 400 (error_body ("bad deadline_ms: " ^ v)))
  in
  let budget_rows =
    match Http.param req "budget_rows" with
    | None -> t.cfg.default_budget_rows
    | Some v -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> Some n
      | _ -> reply 400 (error_body ("bad budget_rows: " ^ v)))
  in
  let mode =
    match Http.param req "mode" with
    | None | Some "rewritten" -> Rewritten
    | Some "original" -> Original
    | Some m -> reply 400 (error_body ("bad mode: " ^ m))
  in
  (deadline, budget_rows, mode)

(* every table the query reads: its FROM list, outer joins and
   subqueries, recursively *)
let tables_read (q : Sql.Ast.query) =
  let open Sql.Ast in
  let rec query acc q =
    let acc = List.fold_left (fun acc r -> r.table :: acc) acc q.from in
    let acc =
      List.fold_left
        (fun acc oj -> expr (oj.oj_table.table :: acc) oj.oj_on)
        acc q.outer_joins
    in
    let items =
      match q.select with
      | Star -> []
      | Items items -> List.map (fun i -> i.expr) items
    in
    List.fold_left expr acc
      (items @ Option.to_list q.where @ q.group_by @ Option.to_list q.having
      @ List.map (fun o -> o.o_expr) q.order_by)
  and expr acc = function
    | Lit _ | Col _ | Agg (_, None) -> acc
    | Unop (_, e)
    | Like (e, _)
    | Not_like (e, _)
    | In_list (e, _)
    | Is_null e
    | Is_not_null e
    | Agg (_, Some e) ->
      expr acc e
    | Binop (_, a, b) -> expr (expr acc a) b
    | Between (a, lo, hi) -> expr (expr (expr acc a) lo) hi
    | In_query (e, sub) -> query (expr acc e) sub
    | Exists sub | Scalar_subquery sub -> query acc sub
  in
  List.sort_uniq String.compare (List.map String.lowercase_ascii (query [] q))

(* parse (for normalization) and rewrite once per (query, mode); the
   prepared AST is executed directly on the engine thereafter.  The
   plan hash rides along in the cache entry: it identifies the
   physical plan shape in the query log, so two queries that
   normalize differently but plan identically are groupable.  Returns
   the cache key (mode and normalized text, shared with the result
   cache), the normalized text and the entry. *)
let prepare t ~generation session mode sql =
  let ast =
    try Sql.Parser.parse_query sql
    with e -> reply 400 (error_body ("parse error: " ^ Printexc.to_string e))
  in
  let normalized = Sql.Pretty.query_to_string ast in
  let key = mode_tag mode ^ "|" ^ normalized in
  match Cache.find t.prepared key with
  | Some e when e.generation = generation -> (key, normalized, e)
  | _ ->
    let prepared =
      match mode with
      | Original -> ast
      | Rewritten -> (
        match Conquer.Clean.rewrite session sql with
        | Ok rewritten -> Sql.Parser.parse_query rewritten
        | Error violations ->
          reply 400
            (error_body
               ("not rewritable: "
               ^ String.concat "; "
                   (List.map Conquer.Rewritable.violation_to_string violations)
               )))
    in
    let plan_hash =
      try
        Querylog.fingerprint
          (Engine.Plan.to_string
             (Engine.Database.plan (Conquer.Clean.engine session) prepared))
      with _ -> ""
    in
    let e =
      { value = (prepared, plan_hash); generation; tables = tables_read prepared }
    in
    Cache.add t.prepared key e;
    (key, normalized, e)

let register_inflight t info =
  locked t.ilock @@ fun () ->
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.inflight id info;
  id

let unregister_inflight t id =
  locked t.ilock @@ fun () -> Hashtbl.remove t.inflight id

let handle_query t ctx ~trace_id job req =
  Telemetry.Metrics.inc m_requests;
  ctx.cx_is_query <- true;
  let sql =
    match (req.Http.meth, String.trim req.Http.body) with
    | "POST", body when body <> "" -> body
    | _ -> (
      match Http.param req "sql" with
      | Some sql when String.trim sql <> "" -> sql
      | _ -> reply 400 (error_body "no sql (POST a body or pass ?sql=)"))
  in
  ctx.cx_sql <- sql;
  let deadline, budget_rows, mode = parse_params t req in
  ctx.cx_mode <- mode_tag mode;
  let remaining = job.enqueued_at +. deadline -. Unix.gettimeofday () in
  if remaining <= 0.0 then begin
    (* spent the whole deadline waiting in the queue: the query never
       ran, so there are no partial rows to return *)
    Telemetry.Metrics.inc m_cancelled;
    ctx.cx_cancelled <- true;
    reply 408 (error_body "deadline expired before execution began")
  end;
  let generation, session =
    Telemetry.Span.with_ ~name:"serve.store_probe" (fun () ->
        match ensure_session t with
        | Ok pair -> pair
        | Error detail ->
          reply 503
            ~headers:
              [ ("retry-after", Printf.sprintf "%.0f" t.cfg.retry_after) ]
            (error_body detail))
  in
  ctx.cx_generation <- generation;
  let key, normalized, prepared =
    Telemetry.Span.with_ ~name:"serve.prepare" (fun () ->
        prepare t ~generation session mode sql)
  in
  let ast, plan_hash = prepared.value in
  ctx.cx_sql <- normalized;
  ctx.cx_plan_hash <- plan_hash;
  let answer ~core ~truncated ~cancelled ~cached =
    raise
      (Reply
         ( 200,
           [],
           compose_body ~core ~generation ~truncated ~cancelled ~cached
             ~elapsed:(Unix.gettimeofday () -. job.enqueued_at) ))
  in
  let cache_hit =
    Telemetry.Span.with_ ~name:"serve.cache_probe" (fun () ->
        match Cache.find t.results key with
        | Some e when e.generation = generation -> Some e.value
        | _ -> None)
  in
  match cache_hit with
  | Some (core, rows) ->
    Telemetry.Metrics.inc m_cache_hits;
    ctx.cx_cached <- true;
    ctx.cx_rows <- rows;
    Telemetry.Span.add_attr "cached" "true";
    answer ~core ~truncated:false ~cancelled:false ~cached:true
  | None ->
    let token = Engine.Cancel.create () in
    let id =
      register_inflight t
        {
          if_fd = job.fd;
          if_token = token;
          if_trace_id = trace_id;
          if_sql = normalized;
          if_mode = mode_tag mode;
          if_enqueued_at = job.enqueued_at;
          if_started_at = Unix.gettimeofday ();
        }
    in
    let t_exec = Unix.gettimeofday () in
    let rel, stop =
      Fun.protect
        ~finally:(fun () -> unregister_inflight t id)
        (fun () ->
          let config =
            {
              Engine.Planner.default_config with
              max_rows = budget_rows;
              max_elapsed = Some remaining;
            }
          in
          Conquer.Clean.answers_ast_within ~config ~cancel:token session ast)
    in
    ctx.cx_exec <- Unix.gettimeofday () -. t_exec;
    let truncated = stop.Engine.Database.truncated in
    let cancelled = stop.Engine.Database.cancelled in
    if cancelled then Telemetry.Metrics.inc m_cancelled;
    if truncated || cancelled then Telemetry.Metrics.inc m_partial;
    ctx.cx_rows <- Dirty.Relation.cardinality rel;
    ctx.cx_truncated <- truncated;
    ctx.cx_cancelled <- cancelled;
    let core =
      Telemetry.Span.with_ ~name:"serve.serialize" (fun () ->
          let core = result_core rel in
          Telemetry.Span.add_attr "bytes" (string_of_int (String.length core));
          core)
    in
    if not (truncated || cancelled) then
      Cache.add t.results key
        { value = (core, ctx.cx_rows); generation; tables = prepared.tables };
    answer ~core ~truncated ~cancelled ~cached:false

(* ---- the update endpoint ---- *)

let handle_update t job req =
  let body = String.trim req.Http.body in
  if body = "" then
    reply 400 (error_body "no update ops (POST delta CSV records)");
  let batch =
    match Dirty.Delta.of_rows (Dirty.Csv.parse_rows body) with
    | batch -> batch
    | exception Dirty.Delta.Invalid msg ->
      reply 400 (error_body ("invalid update: " ^ msg))
    | exception Dirty.Csv.Parse_error { line; msg; _ } ->
      reply 400 (error_body (Printf.sprintf "bad CSV at line %d: %s" line msg))
  in
  if batch = [] then
    reply 400 (error_body "no update ops (POST delta CSV records)");
  match
    Telemetry.Span.with_ ~name:"serve.update" (fun () -> apply_update t batch)
  with
  | Error (`Invalid msg) -> reply 400 (error_body ("invalid update: " ^ msg))
  | Error (`Unavailable detail) ->
    reply 503
      ~headers:[ ("retry-after", Printf.sprintf "%.0f" t.cfg.retry_after) ]
      (error_body detail)
  | Ok (generation, outcome, compacted) ->
    reply 200
      (Printf.sprintf
         "{\"generation\":%d,\"ops\":%d,\"touched\":%d,\"compacted\":%b,\"elapsed_ms\":%s}"
         generation (List.length batch)
         (List.length outcome.Dirty.Delta.touched)
         compacted
         (Telemetry.Export.json_float
            ((Unix.gettimeofday () -. job.enqueued_at) *. 1000.0)))

(* ---- the /debug surface ---- *)

let debug_requests_json t =
  let now = Unix.gettimeofday () in
  let snapshot =
    locked t.ilock @@ fun () ->
    Hashtbl.fold (fun id v acc -> (id, v) :: acc) t.inflight []
  in
  let snapshot = List.sort (fun (a, _) (b, _) -> compare a b) snapshot in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"in_flight\":[";
  List.iteri
    (fun i (id, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":%d,\"trace_id\":%s,\"sql\":%s,\"mode\":%s,\"elapsed_ms\":%s,\"queue_wait_ms\":%s,\"cancelled\":%b}"
           id
           (Telemetry.Export.json_string v.if_trace_id)
           (Telemetry.Export.json_string v.if_sql)
           (Telemetry.Export.json_string v.if_mode)
           (Telemetry.Export.json_float ((now -. v.if_started_at) *. 1000.0))
           (Telemetry.Export.json_float
              ((v.if_started_at -. v.if_enqueued_at) *. 1000.0))
           (Engine.Cancel.cancelled v.if_token)))
    snapshot;
  Buffer.add_string buf
    (Printf.sprintf "],\"count\":%d}" (List.length snapshot));
  Buffer.contents buf

let debug_traces_index_json t =
  let entries = Telemetry.Trace.ring_recent t.traces in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"traces\":[";
  List.iteri
    (fun i (e : Telemetry.Trace.entry) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"trace_id\":%s,\"completed_at\":%s,\"elapsed_ms\":%s,\"covered_ms\":%s,\"spans\":%d}"
           (Telemetry.Export.json_string e.trace_id)
           (Telemetry.Export.json_float e.completed_at)
           (Telemetry.Export.json_float (e.root.Telemetry.Span.elapsed *. 1000.0))
           (Telemetry.Export.json_float
              (Telemetry.Span.leaf_elapsed e.root *. 1000.0))
           (Telemetry.Span.count e.root)))
    entries;
  Buffer.add_string buf
    (Printf.sprintf "],\"count\":%d,\"capacity\":%d}"
       (List.length entries)
       (Telemetry.Trace.ring_capacity t.traces));
  Buffer.contents buf

let debug_trace t req id =
  match Telemetry.Trace.ring_find t.traces id with
  | None -> reply 404 (error_body ("no retained trace " ^ id))
  | Some e -> (
    match Http.param req "format" with
    | Some "pretty" ->
      (* rendered server-side so the CLI needs no span-tree parser *)
      let text =
        Printf.sprintf "trace %s  completed %.3f\n%s" e.trace_id e.completed_at
          (Telemetry.Export.span_to_string e.root)
      in
      reply 200 ~headers:[ ("x-content-type", "text/plain") ] text
    | _ ->
      reply 200
        (Printf.sprintf "{\"trace_id\":%s,\"completed_at\":%s,\"root\":%s}"
           (Telemetry.Export.json_string e.trace_id)
           (Telemetry.Export.json_float e.completed_at)
           (Telemetry.Export.span_to_json e.root)))

let debug_querylog t req =
  let int_param name default =
    match Http.param req name with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> n
      | _ -> reply 400 (error_body (Printf.sprintf "bad %s: %s" name v)))
  in
  let n = int_param "n" 50 in
  let after = int_param "after" 0 in
  let records = Querylog.recent ~after ~n t.querylog in
  let body =
    String.concat "" (List.map (fun r -> Querylog.to_json r ^ "\n") records)
  in
  reply 200 ~headers:[ ("x-content-type", "application/x-ndjson") ] body

let debug_gc_json () =
  let s = Gc.quick_stat () in
  Printf.sprintf
    "{\"minor_words\":%s,\"promoted_words\":%s,\"major_words\":%s,\"minor_collections\":%d,\"major_collections\":%d,\"compactions\":%d,\"heap_words\":%d,\"top_heap_words\":%d,\"stack_size\":%d}"
    (Telemetry.Export.json_float s.Gc.minor_words)
    (Telemetry.Export.json_float s.Gc.promoted_words)
    (Telemetry.Export.json_float s.Gc.major_words)
    s.Gc.minor_collections s.Gc.major_collections s.Gc.compactions
    s.Gc.heap_words s.Gc.top_heap_words s.Gc.stack_size

(* every histogram bucket that holds an exemplar, as
   (metric, le, count, trace_id, value, ts) — the join between the
   latency distribution and the trace ring *)
let debug_exemplars_json () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"exemplars\":[";
  let first = ref true in
  List.iter
    (fun (s : Telemetry.Metrics.sample) ->
      match s.data with
      | Telemetry.Metrics.Histogram_value h ->
        Array.iteri
          (fun i ex ->
            match ex with
            | None -> ()
            | Some (e : Telemetry.Metrics.exemplar) ->
              if not !first then Buffer.add_char buf ',';
              first := false;
              let le =
                if i < Array.length h.hs_bounds then
                  Printf.sprintf "%.9g" h.hs_bounds.(i)
                else "+Inf"
              in
              Buffer.add_string buf
                (Printf.sprintf
                   "{\"metric\":%s,\"le\":%s,\"count\":%d,\"trace_id\":%s,\"value\":%s,\"ts\":%s}"
                   (Telemetry.Export.json_string s.name)
                   (Telemetry.Export.json_string le)
                   h.hs_counts.(i)
                   (Telemetry.Export.json_string e.ex_label)
                   (Telemetry.Export.json_float e.ex_value)
                   (Telemetry.Export.json_float e.ex_at)))
          h.hs_exemplars
      | _ -> ())
    (Telemetry.Metrics.snapshot ());
  Buffer.add_string buf "]}";
  Buffer.contents buf

let handle_request t ctx ~trace_id job req =
  match (req.Http.meth, req.Http.path) with
  | "GET", "/healthz" -> reply 200 "{\"status\":\"ok\"}"
  | "GET", "/readyz" ->
    let ready =
      (not t.draining)
      && (match Breaker.state t.breaker with
         | Breaker.Open -> false
         | _ -> true)
      && t.session <> None
    in
    if ready then reply 200 "{\"status\":\"ready\"}"
    else reply 503 (error_body "not ready")
  | "GET", "/metrics" ->
    raise
      (Reply
         ( 200,
           [ ("x-content-type", "text/plain") ],
           [ Telemetry.Export.prometheus_string () ] ))
  | ("GET" | "POST"), "/query" -> handle_query t ctx ~trace_id job req
  | "POST", "/update" -> handle_update t job req
  | "GET", "/debug/requests" -> reply 200 (debug_requests_json t)
  | "GET", "/debug/traces" -> reply 200 (debug_traces_index_json t)
  | "GET", path when String.starts_with ~prefix:"/debug/traces/" path ->
    let id =
      String.sub path (String.length "/debug/traces/")
        (String.length path - String.length "/debug/traces/")
    in
    debug_trace t req id
  | "GET", "/debug/querylog" -> debug_querylog t req
  | "GET", "/debug/gc" -> reply 200 (debug_gc_json ())
  | "GET", "/debug/exemplars" -> reply 200 (debug_exemplars_json ())
  | _, ("/healthz" | "/readyz" | "/metrics" | "/query" | "/update") ->
    reply 405 (error_body "method not allowed")
  | _, path
    when String.starts_with ~prefix:"/debug/" path ->
    reply 405 (error_body "method not allowed")
  | _ -> reply 404 (error_body "not found")

let outcome_to_response outcome =
  match outcome with
  | Reply (status, headers, body) -> (status, headers, body)
  | Http.Bad_request detail -> (400, [], [ error_body detail ])
  | Http.Too_large detail -> (413, [], [ error_body detail ])
  | Http.Timeout -> (408, [], [ error_body "request read timed out" ])
  | Http.Disconnected -> raise Http.Disconnected
  | e ->
    Telemetry.Metrics.inc m_internal;
    (500, [], [ error_body ("internal error: " ^ Printexc.to_string e) ])

let write_outcome fd (status, headers, body) =
  let content_type =
    match List.assoc_opt "x-content-type" headers with
    | Some ct -> ct
    | None -> "application/json"
  in
  let headers = List.remove_assoc "x-content-type" headers in
  Http.write_response fd ~status ~headers ~content_type ~body ();
  status

(* One request, one connection.  Every exception is converted into a
   response (or a silent close when the client is already gone): the
   worker domain survives anything a request can throw at it.

   Tracing: every request gets a trace id — the client's [X-Trace-Id]
   when it sends a plausible one (so a caller can correlate its own
   logs with the daemon's), a fresh one otherwise — echoed back on
   the response.  A span tree is captured when the id samples in
   under [trace_sample], or speculatively whenever a slow-query
   threshold is configured (a query does not announce in advance that
   it will be slow).  Captured trees are retained in the ring only
   when sampled or actually slow; everything else is dropped on the
   floor.  With sampling off and no threshold, no serve-level span
   capture happens at all — the zero-rate overhead budget in ISSUE
   terms.

   The capture must wrap the whole computation *as a value*:
   {!Telemetry.Span.detached} loses its captured root when the
   wrapped function raises, and [handle_request] signals every
   response by raising {!Reply}.  So the traced region converts
   outcomes to values (and writes the response, so serialization and
   the socket write are on the tree) and only {!Http.Disconnected}
   escapes — a trace nobody could have read anyway. *)
let serve_connection t job =
  Fun.protect
    ~finally:(fun () -> close_quiet job.fd)
    (fun () ->
      if t.hard_drain then begin
        let outcome =
          Reply
            ( 503,
              [ ("retry-after", Printf.sprintf "%.0f" t.cfg.retry_after) ],
              [ error_body "server is shutting down" ] )
        in
        let _status = write_outcome job.fd (outcome_to_response outcome) in
        Telemetry.Metrics.observe h_latency
          (Unix.gettimeofday () -. job.enqueued_at)
      end
      else
        match Http.read_request ~read_timeout:1.0 job.fd with
        | exception e ->
          (* no parsed request: no trace id to honor, nothing to log *)
          let _status = write_outcome job.fd (outcome_to_response e) in
          Telemetry.Metrics.observe h_latency
            (Unix.gettimeofday () -. job.enqueued_at)
        | req ->
          let started = Unix.gettimeofday () in
          let trace_id =
            match Http.header req "x-trace-id" with
            | Some id when Telemetry.Trace.valid_id id ->
              String.lowercase_ascii id
            | _ -> Telemetry.Trace.gen_id ()
          in
          let is_query = req.Http.path = "/query" in
          let sampled =
            is_query
            && Telemetry.Trace.decide ~rate:t.cfg.trace_sample trace_id
          in
          let capture =
            Telemetry.Control.enabled () && is_query
            && (sampled || t.cfg.slow_query_ms <> None)
          in
          let ctx = new_reqctx () in
          let run () =
            if capture then
              (* queue wait (including the header read) predates any
                 instrumented code: graft it as a hand-made first child *)
              Telemetry.Span.attach
                (Telemetry.Span.manual ~name:"serve.queue_wait"
                   ~start:job.enqueued_at
                   ~elapsed:(started -. job.enqueued_at) ());
            let outcome =
              try handle_request t ctx ~trace_id job req with o -> o
            in
            let status, headers, body = outcome_to_response outcome in
            let headers =
              if is_query then ("x-trace-id", trace_id) :: headers
              else headers
            in
            let respond () = write_outcome job.fd (status, headers, body) in
            if capture then
              Telemetry.Span.with_ ~name:"serve.respond" respond
            else respond ()
          in
          let status, root =
            if capture then
              Telemetry.Span.detached ~name:"serve.request"
                ~attrs:
                  [ ("trace_id", trace_id); ("path", req.Http.path) ]
                run
            else (run (), None)
          in
          let finished = Unix.gettimeofday () in
          let total = finished -. job.enqueued_at in
          let slow =
            match t.cfg.slow_query_ms with
            | Some ms -> is_query && total *. 1000.0 >= ms
            | None -> false
          in
          if slow then Telemetry.Metrics.inc m_slow;
          let retained =
            match root with
            | Some root when sampled || slow ->
              (* stretch the root over the whole request so the tree's
                 span covers queue wait too, then retain it *)
              root.Telemetry.Span.start <- job.enqueued_at;
              root.Telemetry.Span.elapsed <- total;
              root.Telemetry.Span.attrs <-
                ("status", string_of_int status)
                :: List.remove_assoc "status" root.Telemetry.Span.attrs;
              (* exclusive-time "(self)" leaves, so the retained tree
                 attributes the wall-clock all the way down *)
              Telemetry.Span.annotate_self root;
              Telemetry.Trace.ring_add t.traces ~trace_id root;
              Telemetry.Metrics.inc m_traced;
              true
            | _ -> false
          in
          Telemetry.Metrics.observe
            ?exemplar:(if retained then Some trace_id else None)
            h_latency total;
          if is_query then begin
            let record =
              {
                Querylog.empty_record with
                ts = finished;
                trace_id;
                sampled = retained;
                sql = ctx.cx_sql;
                fingerprint =
                  (if ctx.cx_sql = "" then ""
                   else Querylog.fingerprint ctx.cx_sql);
                plan_hash = ctx.cx_plan_hash;
                generation = ctx.cx_generation;
                mode = ctx.cx_mode;
                status;
                rows = ctx.cx_rows;
                truncated = ctx.cx_truncated;
                cancelled = ctx.cx_cancelled;
                cached = ctx.cx_cached;
                slow;
                queue_wait_ms = (started -. job.enqueued_at) *. 1000.0;
                exec_ms = ctx.cx_exec *. 1000.0;
                total_ms = total *. 1000.0;
              }
            in
            ignore (Querylog.log t.querylog record)
          end)

let serve_connection_quiet t job =
  try serve_connection t job with
  | Http.Disconnected -> ()
  | Unix.Unix_error _ -> ()

(* ---- worker pool ---- *)

let next_job t =
  locked t.qlock @@ fun () ->
  let rec wait () =
    if not (Queue.is_empty t.queue) then begin
      let job = Queue.pop t.queue in
      Telemetry.Metrics.set g_queue (Float.of_int (Queue.length t.queue));
      Some job
    end
    else if t.draining then None
    else begin
      Condition.wait t.qcond t.qlock;
      wait ()
    end
  in
  wait ()

let rec worker_loop t =
  match next_job t with
  | None -> ()
  | Some job ->
    Atomic.incr t.active;
    Telemetry.Metrics.set g_inflight (Float.of_int (Atomic.get t.active));
    serve_connection_quiet t job;
    Atomic.decr t.active;
    Telemetry.Metrics.set g_inflight (Float.of_int (Atomic.get t.active));
    worker_loop t

(* ---- disconnect reaper ---- *)

(* A zero-byte MSG_PEEK on a readable connection distinguishes "the
   client hung up" (recv returns 0) from "the client pipelined more
   bytes" (recv returns them, unconsumed).  Hung-up connections get
   their query's token tripped so the worker stops at its next
   checkpoint instead of computing an answer nobody will read. *)
let reap_once t =
  let snapshot =
    locked t.ilock @@ fun () ->
    Hashtbl.fold (fun _ v acc -> v :: acc) t.inflight []
  in
  List.iter
    (fun { if_fd = fd; if_token = token; _ } ->
      if not (Engine.Cancel.cancelled token) then
        try
          match Unix.select [ fd ] [] [] 0.0 with
          | [ _ ], _, _ -> (
            let b = Bytes.create 1 in
            match Unix.recv fd b 0 1 [ MSG_PEEK ] with
            | 0 -> Engine.Cancel.cancel ~reason:"client disconnected" token
            | _ -> ()
            | exception Unix.Unix_error _ ->
              Engine.Cancel.cancel ~reason:"client disconnected" token)
          | _ -> ()
        with Unix.Unix_error _ -> ())
    snapshot

let reaper_loop t =
  while not (Atomic.get t.reaper_stop) do
    reap_once t;
    Unix.sleepf 0.01
  done

(* ---- accept loop, shed, drain ---- *)

let shed t fd =
  Telemetry.Metrics.inc m_shed;
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0
   with Unix.Unix_error _ -> ());
  (try
     Http.write_response fd ~status:503
       ~headers:[ ("retry-after", Printf.sprintf "%.0f" t.cfg.retry_after) ]
       ~body:[ error_body "overloaded; request shed" ]
       ()
   with Http.Disconnected | Unix.Unix_error _ -> ());
  close_quiet fd

let admit t fd =
  let job = { fd; enqueued_at = Unix.gettimeofday () } in
  let admitted =
    locked t.qlock @@ fun () ->
    if t.draining || Queue.length t.queue >= t.cfg.queue_capacity then false
    else begin
      Queue.push job t.queue;
      Telemetry.Metrics.set g_queue (Float.of_int (Queue.length t.queue));
      Condition.signal t.qcond;
      true
    end
  in
  if not admitted then shed t fd

let shutdown t =
  locked t.qlock @@ fun () ->
  t.draining <- true;
  Condition.broadcast t.qcond

(* async-signal-safe shutdown request: one atomic store, no locks.
   Signal handlers run at safepoints of the accepting domain, which
   may already hold qlock — so the handler must only set this flag;
   the accept loop notices it within one select timeout and runs the
   real (locking) shutdown itself. *)
let request_shutdown t = Atomic.set t.stop_requested true

type drain_report = { drained : bool; cancelled_inflight : int }

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stop_requested then shutdown t;
    if t.draining then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.05 with
      | [ _ ], _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ -> admit t fd
        | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> ())
      | _ -> ()
      | exception Unix.Unix_error ((EINTR | EBADF), _, _) -> ());
      loop ()
    end
  in
  loop ()

(* Drain protocol: stop accepting, let the workers finish the queue,
   and past the deadline flip to hard drain — remaining queued
   requests answer 503 without executing and every in-flight token is
   tripped — so the daemon always comes down in bounded time. *)
let run t =
  (* a client that vanishes mid-write must surface as EPIPE, not kill
     the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workers =
    List.init t.cfg.concurrency (fun _ -> Domain.spawn (fun () -> worker_loop t))
  in
  let reaper = Domain.spawn (fun () -> reaper_loop t) in
  accept_loop t;
  close_quiet t.listen_fd;
  let deadline = Unix.gettimeofday () +. t.cfg.drain_deadline in
  let rec await_drain () =
    let idle =
      locked t.qlock (fun () -> Queue.is_empty t.queue)
      && Atomic.get t.active = 0
    in
    if idle then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf 0.01;
      await_drain ()
    end
  in
  let drained = await_drain () in
  if not drained then begin
    t.hard_drain <- true;
    let victims =
      locked t.ilock @@ fun () ->
      Hashtbl.fold (fun _ { if_token; _ } acc -> if_token :: acc) t.inflight []
    in
    List.iter
      (fun token ->
        if not (Engine.Cancel.cancelled token) then begin
          Engine.Cancel.cancel ~reason:"server draining" token;
          Telemetry.Metrics.inc m_cancelled;
          Atomic.incr t.force_cancelled
        end)
      victims
  end;
  locked t.qlock (fun () -> Condition.broadcast t.qcond);
  List.iter Domain.join workers;
  Atomic.set t.reaper_stop true;
  Domain.join reaper;
  Querylog.close t.querylog;
  { drained; cancelled_inflight = Atomic.get t.force_cancelled }
