(** Plan evaluation.

    Filter, hash joins and index joins stream: each pushes its output
    rows into its consumer as it produces them, so a pipeline runs
    from one materialized source (a scan, a sort, an aggregate's
    output, ...) to one breaker: an Aggregate groups the rows as they
    arrive, a Project builds its output array from them, and the plan
    root, a hash join's build side and the input of any other node
    collect them into a full {!Dirty.Relation.t}.  Joins are
    hash-based; aggregation is hash-grouped. *)

type catalog = {
  relation : string -> Dirty.Relation.t;
      (** base table by name. @raise Not_found for unknown tables *)
  index : string -> string -> Index.t option;
      (** [index table attr] is the persistent index, when one
          exists *)
}

exception Exec_error of string

val run : ?budget:Budget.t -> catalog -> Plan.t -> Dirty.Relation.t
(** Every operator runs serially on the calling domain.  Budgets and
    telemetry only bound or observe the operators; every configuration
    runs the same ones, so a [Truncate] answer is a deterministic
    prefix.  With telemetry on, each node runs under an
    [exec.<operator>] span whose [rows_out] and [cols_out] attributes
    give its output shape — the per-operator view that
    [conquer profile] prints.  A streamed stage's span (Filter, hash
    join, index join) sits at the stage's place in the plan tree; its
    time also covers the per-row work of the stages above it, up to
    the node consuming the stream.
    @raise Exec_error on semantic errors (unknown table, unbound or
    ambiguous column, type errors).
    @raise Budget.Exceeded when a [Raise]-mode budget runs out; with a
    [Truncate]-mode budget the result is the partial output produced
    within the budget (consult {!Budget.truncated}). *)
