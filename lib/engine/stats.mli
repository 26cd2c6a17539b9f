(** RUNSTATS-style statistics used by the planner's cost model. *)

type histogram = {
  bounds : float array;
      (** ascending bucket upper bounds; bucket [i] covers
          (bounds[i-1], bounds[i]], the first bucket starts at the
          column minimum *)
  depth : float;  (** rows per bucket (equi-depth) *)
}

type column_stats = {
  distinct : int;
  nulls : int;
  min : Dirty.Value.t option;
  max : Dirty.Value.t option;
  histogram : histogram option;
      (** equi-depth histogram over the numeric image of the column
          (numbers and dates); [None] for non-numeric columns *)
}

type t = {
  rows : int;
  columns : (string * column_stats) list;
}

val analyze : ?prev:Dirty.Relation.t * t -> Dirty.Relation.t -> t
(** Collect statistics for every column.  With [prev = (rel', s)],
    where [s] is [rel']'s statistics, a column whose cells are
    physically those of [rel'] row for row
    ({!Dirty.Relation.shares_column}) keeps its entry of [s]; only the
    other columns are analyzed.  The result equals a fresh
    [analyze rel] either way.  Counts each column in
    [engine.stats.columns_analyzed] or [engine.stats.columns_reused]. *)

val column : t -> string -> column_stats option

val range_fraction : histogram -> ?lo:float -> ?hi:float -> unit -> float
(** Estimated fraction of (non-null) rows whose value lies in
    [(lo, hi]]; unbounded sides default to the histogram ends.
    Interpolates linearly within buckets. *)

val selectivity : t option -> Sql.Ast.expr -> float
(** Heuristic selectivity in [0,1] of a single-table predicate:
    equality on a column with known statistics uses [1/distinct];
    ranges, LIKE and IN fall back to textbook constants; conjunctions
    multiply, disjunctions add (clamped). [None] statistics fall back
    to the constants alone. *)
