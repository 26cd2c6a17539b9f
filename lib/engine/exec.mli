(** Plan evaluation.

    Hash and index joins stream: each pushes its output rows into its
    consumer as it produces them, so a chain of joins under an
    Aggregate is grouped row by row and never materialized.  Every
    other node, and a join whose whole output is needed (the plan
    root, a hash join's build side, the input of any other node),
    produces a full {!Dirty.Relation.t}.  Joins are hash-based;
    aggregation is hash-grouped. *)

type catalog = {
  relation : string -> Dirty.Relation.t;
      (** base table by name. @raise Not_found for unknown tables *)
  index : string -> string -> Index.t option;
      (** [index table attr] is the persistent index, when one
          exists *)
}

exception Exec_error of string

val run :
  ?budget:Budget.t ->
  ?jobs:int ->
  catalog ->
  Plan.t ->
  Dirty.Relation.t
(** [jobs] (default [1]) caps the domains used by the
    partition-parallel Filter and Project.  Results are bit-identical
    to a serial run for any [jobs]: row ranges are concatenated in
    input order.  Joins and aggregates always run serially, so a
    [Truncate] prefix is the same at any [jobs].  Budgets and telemetry
    only bound or observe the operators; every configuration runs the
    same ones.  With telemetry on, each node runs under an
    [exec.<operator>] span whose [rows_out] and [cols_out] attributes
    give its output shape — the per-operator view that
    [conquer profile] prints.  A streamed join's span sits at the
    join's place in the plan tree; its time also covers the per-row
    work of the operators above it, up to the node consuming the
    stream.
    @raise Exec_error on semantic errors (unknown table, unbound or
    ambiguous column, type errors).
    @raise Budget.Exceeded when a [Raise]-mode budget runs out; with a
    [Truncate]-mode budget the result is the partial output produced
    within the budget (consult {!Budget.truncated}). *)
