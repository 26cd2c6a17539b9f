(** Translation of SQL queries to plans.

    The planner performs the classical SPJ pipeline:

    - selection pushdown (single-table conjuncts are filtered at the
      scans),
    - extraction of equi-join predicates,
    - greedy join ordering driven by estimated cardinalities from
      {!Stats},
    - index-join selection when the inner side is a bare scan of a
      table with a persistent index on its first join attribute,
    - residual filters, aggregation/HAVING, DISTINCT, ORDER BY and
      LIMIT on top.

    ORDER BY keys that reference output aliases are sorted after
    projection; keys that need pre-projection columns are sorted
    below the projection. *)

type config = {
  pushdown : bool;  (** push single-table predicates below joins *)
  use_indexes : bool;  (** allow index joins *)
  max_rows : int option;
      (** execution budget: total rows the plan's operators may
          produce (intermediate results included); [None] (the
          default) is unlimited.  See {!Budget}. *)
  max_elapsed : float option;
      (** execution budget: wall-clock seconds; [None] is
          unlimited. *)
  jobs : int;
      (** ignored: every operator runs serially.  Kept only because
          the benchmark still sets it; ROADMAP item 6 removes it. *)
  chunked : bool;
      (** ignored: the row interpreter is the only executor.  Kept
          only because the benchmark still reads it; ROADMAP item 6
          removes it. *)
}

val default_config : config

type env = {
  schema_of : string -> Dirty.Schema.t option;
      (** bare (unqualified) schema of a base table *)
  stats_of : string -> Stats.t option;
  has_index : string -> string -> bool;
}

exception Plan_error of string

val plan : ?config:config -> env -> Sql.Ast.query -> Plan.t
(** @raise Plan_error on unknown tables, duplicate aliases, or
    ambiguous references. *)
