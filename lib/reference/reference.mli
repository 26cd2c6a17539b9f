(** A reference evaluator for the SQL subset the fuzzer and its
    corpus emit, sharing no code with the engine.

    [eval tables q] runs nested loops over [q]'s FROM entries in the
    order written, testing each WHERE conjunct at the innermost loop
    where every alias it names is bound.  There is no planner, index,
    parallelism or budget: the evaluator exists to check the engine,
    so it has to be simple enough to check by reading.

    Supported: a select list of columns (with aliases) or of
    count-star; WHERE conjunctions of comparisons between columns and
    literals, where a comparison with [NULL] is false; DISTINCT;
    ORDER BY; LIMIT.  A LIMIT must keep a determined set of rows: it
    may only cut a result that is ordered and has no tie across the
    cut.  Row order among ORDER BY ties, and without ORDER BY, is
    nested-loop order. *)

exception Unsupported of string
(** The query uses a construct outside the subset. *)

val eval : (string * Dirty.Relation.t) list -> Sql.Ast.query -> Dirty.Relation.t
(** [eval tables q] evaluates [q] over the named tables.  Output
    columns are named as in the engine: the select alias, else the
    column name, with [_2], [_3], ... appended to repeats; each
    column's type is that of its first non-null value (VARCHAR when
    there is none).
    @raise Unsupported outside the subset.
    @raise Failure on an unknown table or column, an ambiguous
    column, or a repeated alias. *)
