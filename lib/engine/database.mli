(** The embedded database: catalog, indexes, statistics, and the query
    entry points. *)

type t

val create : unit -> t

val add_relation : t -> name:string -> Dirty.Relation.t -> unit
(** Register (or replace) a base table. Replacing a table drops its
    indexes and statistics. *)

val relation : t -> string -> Dirty.Relation.t
(** @raise Not_found *)

val table_names : t -> string list

val create_index : ?prev:t -> t -> table:string -> attr:string -> unit
(** Build (or rebuild) a hash index.  With [prev], the catalog [t]
    replaces, [prev]'s index on the same table and attribute is reused
    when the attribute's cells are physically those [prev] indexed,
    row for row ({!Dirty.Relation.shares_column}); lookups are then
    identical to a rebuilt index's.  @raise Not_found for an unknown
    table or attribute. *)

val has_index : t -> table:string -> attr:string -> bool
val index : t -> table:string -> attr:string -> Index.t option

val analyze : ?prev:t -> t -> string -> unit
(** RUNSTATS: collect statistics for the table.  With [prev], the
    columns {!Stats.analyze} can carry over from [prev]'s statistics
    for the same table keep them; the result equals a fresh analysis. *)

val analyze_all : t -> unit
val stats : t -> string -> Stats.t option

type reuse = {
  tables_reused : int;
      (** tables registered over the physically same relation as in
          [prev] *)
  columns_analyzed : int;
      (** statistics columns computed afresh rather than carried over
          from [prev] *)
}

val reuse : ?prev:t -> t -> reuse
(** What building [t] from [prev] (see [?prev] on {!create_index} and
    {!analyze}) saved.  Without [prev] nothing was reused. *)

val plan : ?config:Planner.config -> t -> Sql.Ast.query -> Plan.t
val run_plan :
  ?budget:Budget.t -> ?jobs:int -> ?chunked:bool -> ?spill:Exec.spill ->
  t -> Plan.t -> Dirty.Relation.t
(** Execute a plan directly.  [spill] enables the Grace hash-join
    spill — see {!Exec.run}.  [chunked] is ignored: the row
    interpreter is the only executor.  It is kept only because the
    benchmark still passes it; ROADMAP item 5 removes it. *)

val query_ast : ?config:Planner.config -> t -> Sql.Ast.query -> Dirty.Relation.t
val query : ?config:Planner.config -> t -> string -> Dirty.Relation.t
(** Parse, plan and execute SQL text.  When the config declares an
    execution budget, exceeding [max_rows] raises {!Budget.Exceeded}
    and exceeding [max_elapsed] raises {!Cancel.Cancelled} — a
    wall-clock watchdog trips the budget's cancellation token, so even
    a query stuck inside a parallel operator is interrupted at its
    next checkpoint.  The config's [jobs] field selects
    partition-parallel execution; with no config the process-wide
    default ([--jobs] / [CONQUER_JOBS]) applies.
    @raise Sql.Parser.Error, Planner.Plan_error, Exec.Exec_error,
    Budget.Exceeded or Cancel.Cancelled. *)

type stop = {
  truncated : bool;  (** the row budget ran out; rows are a prefix *)
  cancelled : bool;
      (** the time budget ran out (or the token was tripped); rows are
          whatever had been produced when the execution stopped *)
}

val query_ast_within :
  ?config:Planner.config ->
  ?cancel:Cancel.token ->
  t ->
  Sql.Ast.query ->
  Dirty.Relation.t * stop
(** Like {!query_ast}, but a budget declared by the config degrades
    gracefully instead of raising: execution stops producing rows once
    the budget is spent and the partial result is returned together
    with how it stopped.

    When [cancel] is given, that token (rather than a fresh internal
    one) is attached to the budget — and a budget is created even for
    a limitless config — so an external trip (a disconnected client, a
    server drain) stops the execution at its next checkpoint and
    surfaces as [stop.cancelled]. *)

val explain : ?config:Planner.config -> t -> string -> string
(** The plan the query would run, rendered EXPLAIN-style. *)

val query_profiled :
  ?config:Planner.config -> t -> string -> Dirty.Relation.t * Exec.profile
(** Execute and return per-operator row counts and timings. *)

val explain_analyze : ?config:Planner.config -> t -> string -> string
(** Run the query and render the profiled plan (rows and elapsed time
    per operator, EXPLAIN ANALYZE-style). *)
