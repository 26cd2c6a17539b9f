(** The overload-resilient query daemon.

    A long-lived HTTP/JSON front end over a {!Dirty.Store} directory
    and {!Conquer.Clean} query answering, designed to degrade rather
    than fall over:

    - {b admission control}: accepted connections enter a bounded
      queue drained by a fixed pool of worker domains; when the queue
      is full the request is shed immediately with 503 and a
      [Retry-After] hint instead of piling up latency for everyone.
    - {b deadlines}: every query runs under a wall-clock deadline
      (from the [deadline_ms] parameter, clamped to the configured
      maximum).  Time spent waiting in the queue counts against it.
      An expired deadline never produces a 500: if the query already
      started, the partial rows computed so far come back as HTTP 200
      with ["partial": true]; if it never started, 408.
    - {b disconnect cancellation}: a reaper domain watches in-flight
      connections; a client that goes away trips the query's
      cancellation token, freeing the worker at its next checkpoint.
    - {b circuit breaker}: repeated store failures (corruption,
      injected I/O faults, exhausted retries) open a per-store
      {!Breaker}; while open, queries answer 503 without touching the
      store, and a jittered-backoff probe schedule closes it again
      once the store heals.
    - {b prepared queries and result cache}: parsing and rewriting
      are cached per normalized query text; complete (non-partial)
      results are cached keyed on (mode, normalized query).  Every
      entry is tagged with the store generation it is valid at and is
      served only at that generation.  An update through
      [POST /update] re-tags the entries whose query reads none of the
      tables it changed and drops the rest; a commit by another
      writer, seen on reload, drops everything.
    - {b graceful drain}: {!shutdown} (the SIGTERM handler's job)
      stops accepting, lets workers finish the queue, and — if the
      drain deadline passes — cancels what is still running before
      joining every domain.

    {b HTTP surface} (one request per connection, [Content-Length]
    framing):

    - [GET /healthz] — 200 while the process lives.
    - [GET /readyz] — 200 when accepting and the breaker is closed,
      503 otherwise.
    - [GET /metrics] — Prometheus text exposition of the telemetry
      registry (conformant classic format: [_total] counter families,
      cumulative [_bucket]/[_sum]/[_count] histograms).
    - [GET /debug/requests] — queries executing right now, with trace
      id, elapsed and queue-wait milliseconds.
    - [GET /debug/traces] and [GET /debug/traces/<id>] — the bounded
      ring of retained span trees, as JSON (or pre-rendered text with
      [?format=pretty], which is what [conquer trace <id>] prints).
    - [GET /debug/querylog?n=K&after=SEQ] — the structured query log
      as JSON lines; poll with the last [seq] as [after] to tail it.
    - [GET /debug/gc] — a [Gc.quick_stat] heap snapshot.
    - [GET /debug/exemplars] — histogram buckets joined to the trace
      ids of recent requests that landed in them.
    - [POST /update] ({!Dirty.Delta} CSV records as the body) —
      validate the batch against the current snapshot, apply it with
      renormalization, and commit it crash-atomically (a delta
      generation, or a compacting full save once the chain reaches
      [compact_every]).  200 carries [{"generation", "ops", "touched",
      "compacted", "elapsed_ms"}].  Cached results and prepared
      queries that read none of the batch's tables stay valid at the
      new generation; the rest are dropped
      ([serve.cache_retained]/[serve.cache_dropped]).  400 for malformed CSV or
      an invalid op (nothing is committed), 503 with [Retry-After]
      when the breaker is open, the store is unavailable, or the
      probe/reload race persists — never 500 for contention.
    - [POST /query] (SQL text as the body) or [GET /query?sql=...] —
      query parameters [deadline_ms], [budget_rows], and
      [mode=rewritten|original].  200 carries
      [{"columns", "rows", "row_count", "generation", "partial",
      "truncated", "cancelled", "cached", "elapsed_ms"}]; 400 for
      unparsable or non-rewritable queries, 408 for a deadline that
      expired before execution began, 503 when shed, draining, or
      breaker-open, 500 (with the telemetry counter
      [serve.internal_errors]) for anything else — the worker never
      dies.

    {b Tracing}: every /query response carries an [X-Trace-Id] header
    (the client's, when it sent a plausible one; fresh otherwise).
    When the id samples in under [trace_sample] — a deterministic
    hash of the id, so reissuing the same id reproduces the decision
    — or the request crosses [slow_query_ms], the request's span tree
    (queue wait, store probe, prepare, cache probe, planner,
    per-operator execution, serialization, response write) is
    retained and served at [/debug/traces/<id>].  Every /query lands
    one structured record in the query log regardless of sampling. *)

type config = {
  host : string;  (** bind address, default 127.0.0.1 *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  concurrency : int;  (** worker domains draining the queue *)
  queue_capacity : int;  (** admission queue bound; beyond it, shed *)
  default_deadline : float;  (** seconds, when [deadline_ms] absent *)
  max_deadline : float;  (** ceiling clamped onto client deadlines *)
  default_budget_rows : int option;  (** row budget when none given *)
  jobs : int;  (** engine domains per query; 1 = serial execution *)
  cache_capacity : int;  (** result-cache entries; 0 disables *)
  breaker_threshold : int;  (** store failures before tripping open *)
  compact_every : int;
      (** delta-chain length at which an update commits as a
          compacting full snapshot instead of another delta *)
  drain_deadline : float;  (** seconds {!run} waits before hard drain *)
  retry_after : float;  (** seconds advertised on shed responses *)
  trace_sample : float;
      (** fraction of /query requests whose span tree is retained
          (decided deterministically from the trace id); 0 disables *)
  slow_query_ms : float option;
      (** total latency above this promotes the request to a full
          span dump and the query log's [slow] flag *)
  trace_capacity : int;  (** retained span trees (newest win) *)
  querylog_capacity : int;  (** query-log ring entries *)
  querylog_path : string option;
      (** also append each query-log record as a JSON line here *)
}

val default_config : config

type t

val create : ?config:config -> dir:string -> unit -> t
(** Sweep the store directory ({!Dirty.Store.recover}), load the
    committed snapshot, build the query session, and bind the listen
    socket.  Enables telemetry for the process (the daemon's counters
    and [/metrics] endpoint are part of its contract).
    @raise Invalid_argument when [concurrency] or [queue_capacity] is
    below 1 (no worker would ever answer, or every request would be
    shed), when [default_deadline] or [max_deadline] is not positive
    (every request would expire before it ran), or when
    [default_budget_rows] is below 1 (every answer would be empty);
    nothing is read or bound then.
    @raise Dirty.Store.Corrupt when no intact snapshot exists (the
    CLI maps this to exit code 4). *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val recovery_log : t -> string list
(** What the startup {!Dirty.Store.recover} sweep removed. *)

type drain_report = {
  drained : bool;
      (** every in-flight and queued request completed within
          [drain_deadline] *)
  cancelled_inflight : int;
      (** queries force-cancelled by the hard drain *)
}

val run : t -> drain_report
(** Serve until {!shutdown}: spawns the worker pool and the
    disconnect reaper, then accepts in the calling domain (with
    [SIGPIPE] ignored process-wide — socket writes must fail with
    [EPIPE], not kill the daemon).  Returns once every domain is
    joined. *)

val shutdown : t -> unit
(** Begin draining: stop accepting, finish (or, past the drain
    deadline, cancel) in-flight work.  Safe from any domain;
    idempotent.  Takes a lock — from a signal handler use
    {!request_shutdown} instead. *)

val request_shutdown : t -> unit
(** Async-signal-safe {!shutdown} request (one atomic store): the
    accept loop notices within one poll interval and begins the
    drain.  This is what the CLI's SIGTERM/SIGINT handlers call. *)

val result_core : Dirty.Relation.t -> string
(** The cacheable prefix of a [/query] 200 body:
    [{"columns":[...],"rows":[...],"row_count":N].  The reply appends
    the generation, the partial/truncated/cancelled flags, [cached]
    and [elapsed_ms].  Floats render as [%.9g], with nan and the
    infinities as [null]. *)
