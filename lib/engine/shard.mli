(** Cluster-sharded scatter/gather execution (ROADMAP item 5).

    A shard session hash-partitions a dirty database along cluster
    boundaries ({!Dirty.Dirty_db.partition}) into [N] in-process shard
    catalogs.  A shardable query is rewritten into one serializable
    {e plan fragment} that every shard runs against [its fragment of
    one {e partition table} ∪ the global copies of every other table]
    (a broadcast join), scattered on the {!Parallel} domain pool; the
    partial results are gathered — SPJ outputs concatenated in shard
    order, aggregate groups merged additively in first-occurrence
    order — and a small {e finish} query over the merged intermediate
    restores the original projection, HAVING, DISTINCT and ORDER BY.

    {b Correctness.}  The partition table is a FROM table whose name
    occurs exactly once, so every result row of the inner-join block
    contains exactly one partition-table row; the fragments partition
    that table, hence each result row is produced by exactly one shard
    and nothing is double-counted.  SUM/COUNT partials merge by
    addition, MIN/MAX by {!Dirty.Value.compare}.  The merge scans
    partials in shard-index order and keeps groups in first-occurrence
    order of that scan, so answers are a deterministic function of the
    data and the shard count; row order may differ from the unsharded
    run, but the answer bags are identical (the differential fuzzer
    checks this across shard counts and job counts).

    {b Fallback.}  Queries outside the shardable class — subqueries,
    [SELECT *], LIMIT, outer joins, AVG, DISTINCT aggregates, no
    unique FROM table, or HAVING/ORDER BY not expressible over the
    partials — yield [None] from the entry points; the caller runs
    them unsharded through the plain {!Database} path. *)

type session

val create :
  ?index_identifiers:bool ->
  base:Database.t ->
  shards:int ->
  Dirty.Dirty_db.t ->
  session
(** Partition the dirty database into [shards] fragment catalogs.
    [base] is the unpartitioned engine database holding the full
    tables; per-query each shard overlays its fragment of the chosen
    partition table over it ({!Database.overlay}), so non-partitioned
    tables are shared, not copied.  When [index_identifiers] (default
    [true]) each fragment table gets a hash index on its identifier
    attribute and statistics, mirroring the base catalog.
    @raise Invalid_argument when [shards < 1]. *)

val shards : session -> int

val fragment_db : session -> int -> Database.t
(** The shard's fragment catalog (all dirty tables' fragments);
    exposed for tests. *)

(** {1 The scatter/gather boundary}

    Both sides of the boundary are serializable, so a future
    out-of-process worker can receive a fragment and return a partial
    result as text. *)

type fragment = { frag_table : string; frag_query : Sql.Ast.query }
(** The plan fragment every shard executes: [frag_table] names the
    partition table (the shard substitutes its fragment of it);
    [frag_query] is the rewritten per-shard query. *)

val fragment_to_string : fragment -> string
(** Partition-table line followed by the fragment SQL. *)

val fragment_of_string : string -> fragment
(** Inverse of {!fragment_to_string}.
    @raise Invalid_argument on a missing table line.
    @raise Sql.Parser.Error on malformed SQL. *)

val partial_to_string : Dirty.Relation.t -> string
(** Serialize a partial result: a CSV-framed header line of column
    names, then one line per row with self-describing typed cells
    ([i:], [f:] in lossless hex-float form, [s:], [b:], [d:], [n:]).
    Every value — including non-finite floats — round-trips
    exactly. *)

val partial_of_string : string -> Dirty.Relation.t
(** Inverse of {!partial_to_string}; column types are re-inferred from
    the decoded values.
    @raise Invalid_argument on malformed input. *)

type plan
(** A shardable query's scatter/gather plan: the fragment plus how to
    gather (concatenate or merge) and the finish query. *)

val plan_query : session -> Sql.Ast.query -> plan option
(** Analyze a query for shardability; [None] when it falls outside the
    shardable class (see the fallback list above). *)

val plan_fragment : plan -> fragment
val partition_table : plan -> string

(** {1 Gather} *)

val merge_partials :
  num_keys:int ->
  aggs:Sql.Ast.agg_fun array ->
  Dirty.Relation.t list ->
  Dirty.Relation.t
(** Merge per-shard GROUP BY partials: rows are keyed on their first
    [num_keys] columns; the remaining columns merge per [aggs] —
    [Count]/[Sum] add ([Null] means the shard saw no rows for the
    group; [Int]+[Int] stays exact, mixed operands add as floats),
    [Min]/[Max] compare.  Partials are scanned in list order and
    groups emitted in first-occurrence order of that scan, making the
    result deterministic for a fixed partial order.
    @raise Invalid_argument on arity mismatches, non-numeric partials
    under an additive merge, or an [Avg] merge (never produced by
    {!plan_query}). *)

(** {1 Query entry points}

    Sharded analogues of {!Database.query_ast} and
    {!Database.query_ast_within}: the same config flows to every
    shard, so [jobs], spill settings and budgets apply {e
    per shard} (a Raise-mode budget that any shard exceeds raises; a
    Truncate-mode budget truncates each shard's partial independently
    and the stop flags are OR-combined).  The finish query runs on the
    coordinator with budgets and spill stripped — each shard already
    charged its own.  [None] means the query is not shardable and the
    caller must run it unsharded. *)

val query_ast :
  ?config:Planner.config -> session -> Sql.Ast.query -> Dirty.Relation.t option

val query_ast_within :
  ?config:Planner.config ->
  ?cancel:Cancel.token ->
  session ->
  Sql.Ast.query ->
  (Dirty.Relation.t * Database.stop) option
(** [cancel] is attached to every shard's execution; a trip stops each
    shard at its next checkpoint and surfaces as [stop.cancelled]. *)
