(** End-to-end clean query answering.

    A session wraps a dirty database together with an embedded engine
    database holding its relations.  Queries are SQL text; answers
    come back as relations whose last column, [clean_prob], is the
    probability of the answer being in the clean database. *)

type session

val create : ?index_identifiers:bool -> Dirty.Dirty_db.t -> session
(** Build a session.  When [index_identifiers] (default [true]),
    hash indexes are created on every table's identifier attribute
    and statistics are collected, mirroring the paper's experimental
    setup (indexes on the identifier + RUNSTATS). *)

val derive : session -> Dirty.Dirty_db.t -> session
(** [derive prev db] is the session {!create} would build over [db]
    with [prev]'s identifier-indexing setting, built
    from [prev]: every table and column whose cells are physically
    those of [prev] ([==], row for row) keeps [prev]'s identifier
    index and statistics, and only the rest is recomputed.  A
    {!Dirty.Delta.apply} outcome shares untouched tables and cells
    with its input, so after a reassign only the probability column of
    one table is analyzed.  Plans and answers are identical to
    [create]'s.  [prev] is not modified and keeps answering as before. *)

val dirty_db : session -> Dirty.Dirty_db.t
val engine : session -> Engine.Database.t
val env : session -> Dirty_schema.env

val check : session -> string -> (Join_graph.t, Rewritable.violation list) result
(** Parse the SQL text and test membership in the rewritable class. *)

val rewrite : session -> string -> (string, Rewritable.violation list) result
(** The rewritten SQL text of a rewritable query. *)

val answers : ?config:Engine.Planner.config -> session -> string -> Dirty.Relation.t
(** Clean answers via RewriteClean executed on the engine.

    The query runs serially; the [jobs] field of [config] is ignored,
    here and in every query entry point below.
    @raise Rewrite.Not_rewritable when the query is outside the
    class. *)

val top_answers :
  ?config:Engine.Planner.config -> k:int -> session -> string -> Dirty.Relation.t
(** The [k] clean answers most likely to be in the clean database:
    the rewritten query ordered by descending probability (any ORDER
    BY of the input query is replaced) and truncated to [k] rows —
    the ranking use case the paper motivates.
    @raise Rewrite.Not_rewritable as {!answers}. *)

type partial = { rows : Dirty.Relation.t; truncated : bool; cancelled : bool }
(** A possibly-incomplete answer set.  [truncated] is [true] when the
    row budget ran out and [rows] is only a prefix of the full answer
    set; [cancelled] is [true] when the execution was cancelled (time
    budget crossed, or the budget's token tripped) and [rows] is
    whatever had been produced by then.  At most one of the two is
    set. *)

val answers_within :
  ?config:Engine.Planner.config ->
  ?cancel:Engine.Cancel.token ->
  session ->
  string ->
  partial
(** Like {!answers}, but a budget declared by [config] ([max_rows] /
    [max_elapsed]) degrades gracefully: instead of raising
    {!Engine.Budget.Exceeded} or {!Engine.Cancel.Cancelled}, execution
    stops producing rows once the budget is spent and the partial
    answers are returned with the corresponding flag set.

    [cancel] attaches an externally owned token to the execution (see
    {!Engine.Database.query_ast_within}): tripping it — e.g. when the
    requesting client disconnects — stops the query at its next
    checkpoint and sets the [cancelled] flag. *)

val answers_ast_within :
  ?config:Engine.Planner.config ->
  ?cancel:Engine.Cancel.token ->
  session ->
  Sql.Ast.query ->
  Dirty.Relation.t * Engine.Database.stop
(** Budgeted execution of an already-rewritten (prepared) query AST
    on the session's engine ({!Engine.Database.query_ast_within}).
    The daemon's prepared-statement cache uses this. *)

val top_answers_within :
  ?config:Engine.Planner.config ->
  ?cancel:Engine.Cancel.token ->
  k:int ->
  session ->
  string ->
  partial
(** Budgeted {!top_answers}: the prefix of the ranked answers that the
    budget allowed, with the truncation flag. *)

val answers_above :
  ?config:Engine.Planner.config ->
  threshold:float ->
  session ->
  string ->
  Dirty.Relation.t
(** Clean answers whose probability is at least [threshold],
    implemented declaratively by attaching
    [HAVING SUM(...) >= threshold] to the rewritten query. *)

val answers_unchecked :
  ?config:Engine.Planner.config -> session -> string -> Dirty.Relation.t
(** Apply the rewriting without the Dfn 7 check (used to demonstrate
    Example 7's failure mode). *)

val answers_oracle :
  ?max_candidates:int -> session -> string -> Dirty.Relation.t
(** Clean answers via candidate enumeration (Dfn 5), independent of
    the rewriting.  Exponential; for small databases. *)

val original : ?config:Engine.Planner.config -> session -> string -> Dirty.Relation.t
(** Run the query as-is on the dirty database (the baseline the
    paper compares running times against). *)

val consistent_answers :
  ?config:Engine.Planner.config -> ?eps:float -> session -> string -> Dirty.Relation.t
(** Consistent answers in the sense of Arenas et al.: the clean
    answers whose probability is 1 (within [eps], default 1e-9),
    with the probability column dropped. *)

val answer_probability : Dirty.Relation.t -> Dirty.Relation.row -> float
(** Probability of an answer row of {!answers} (its last column).
    @raise Invalid_argument if the row has no numeric last column. *)
