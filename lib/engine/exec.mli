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

type spill = { spill_rows : int; spill_dir : string }
(** Grace-spill configuration for hash joins: when the build side of a
    join holds at least [spill_rows] rows, both sides are hash-
    partitioned into [.spill-*.tmp] run files under [spill_dir]
    (through {!Fault.Io}, so chaos tests can fail or crash any
    syscall) and joined partition-at-a-time, bounding the in-memory
    hash table.  Spilled join output is partition-major — bag-
    identical to the in-memory join, but row order differs.  A
    crashed spill leaves debris that [Dirty.Store.recover] sweeps. *)

val run :
  ?budget:Budget.t ->
  ?jobs:int ->
  ?spill:spill ->
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
    well-defined.  Budgets, spill, telemetry and {!run_profiled} only
    bound or observe node boundaries; every configuration runs the
    same operators.

    [spill] (default off) enables the Grace hash-join spill; joins
    below the threshold are unaffected.
    @raise Exec_error on semantic errors (unknown table, unbound or
    ambiguous column, type errors).
    @raise Budget.Exceeded when a [Raise]-mode budget runs out; with a
    [Truncate]-mode budget the result is the partial output produced
    within the budget (consult {!Budget.truncated}).
    @raise Fault.Io.Io_error when a spill file operation fails (a torn
    spill frame surfaces as a non-transient read error). *)

(** Per-operator execution statistics (EXPLAIN ANALYZE). *)
type profile = {
  operator : string;  (** short operator label, e.g. ["HashJoin"] *)
  out_rows : int;  (** rows the operator produced *)
  elapsed : float;  (** seconds, inclusive of children *)
  children : profile list;
}

val run_profiled :
  ?budget:Budget.t ->
  ?jobs:int ->
  ?spill:spill ->
  catalog ->
  Plan.t ->
  Dirty.Relation.t * profile
(** Like {!run} but also returns the per-node statistics tree;
    profiled results are bit-identical to {!run}'s. *)

val pp_profile : Format.formatter -> profile -> unit

val infer_schema :
  string list -> Dirty.Relation.row list -> Dirty.Schema.t
(** Output-schema inference for computed columns: each column's type
    is taken from its first non-null value (VARCHAR when none).
    Exposed for tests. *)
