(** Plan evaluation.

    Operators are materialized: each node produces a full
    {!Dirty.Relation.t}.  Joins are hash-based; aggregation is
    hash-grouped. *)

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
(** [jobs] (default [1]) caps the domains used for partition-parallel
    operators (hash join, filter, project, aggregate).  Results are
    bit-identical to a serial run for any [jobs]: row ranges are
    concatenated in input order, and aggregation partitions groups by
    key hash, feeding every group in global row order (no partial
    merge, no float reassociation) before restoring first-occurrence
    group order.  Per-row budget-charged operators fall back to serial
    whenever [budget] is given, so [Truncate] prefixes stay
    well-defined.  Budgets and telemetry only bound or observe node
    boundaries; every configuration runs the same operators.  With
    telemetry on, each node runs under an [exec.<operator>] span whose
    [rows_out] and [cols_out] attributes give its output shape — the
    per-operator view that [conquer profile] prints.
    @raise Exec_error on semantic errors (unknown table, unbound or
    ambiguous column, type errors).
    @raise Budget.Exceeded when a [Raise]-mode budget runs out; with a
    [Truncate]-mode budget the result is the partial output produced
    within the budget (consult {!Budget.truncated}). *)
