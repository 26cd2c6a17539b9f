(** Structured integrity diagnostics for dirty databases.

    {!Dirty_db.make_table} stops at the first problem it meets; this
    module instead scans a whole table (or database) and returns a
    {e complete} list of structured diagnostics, so that ingestion of
    dirty data can proceed with a report rather than abort — violated
    constraints surface as data, in the spirit of probabilistic-unclean-
    database frameworks where the error model is first-class.

    Each diagnostic carries a {!severity}: [Error] diagnostics make the
    table unusable under the paper's semantics (per-cluster
    distributions must be probability distributions); [Warning]
    diagnostics are suspicious but tolerable (a zero-probability tuple,
    an exact duplicate inside a cluster).  {!Repair} consumes these
    diagnostics to fix tables cluster by cluster. *)

type severity = Error | Warning

type diagnostic =
  | Missing_column of { table : string; column : string; role : string }
      (** A designated column ([role] is ["identifier"] or
          ["probability"]) is absent from the schema. *)
  | Non_numeric_probability of {
      table : string;
      row : int;
      cluster : Value.t;
      value : Value.t;
    }  (** The probability field does not parse as a number. *)
  | Nan_probability of { table : string; row : int; cluster : Value.t }
      (** The probability is a float NaN. *)
  | Probability_out_of_range of {
      table : string;
      row : int;
      cluster : Value.t;
      value : float;
    }  (** The probability lies outside [0, 1] (beyond tolerance). *)
  | Zero_probability of { table : string; row : int; cluster : Value.t }
      (** The probability is exactly 0: the tuple can never be chosen.
          Warning only. *)
  | Cluster_sum_mismatch of {
      table : string;
      cluster : Value.t;
      sum : float;
      size : int;
    }  (** The cluster's probabilities do not sum to 1 (beyond
          tolerance). *)
  | Duplicate_tuple of {
      table : string;
      cluster : Value.t;
      rows : int list;
    }  (** Two or more rows of the cluster agree on every
          non-probability attribute.  Warning only. *)
  | Empty_cluster of { table : string; cluster : Value.t }
      (** A cluster identifier with no member rows (cannot arise from
          {!Cluster.of_relation}, but guarded against). *)
  | Dangling_reference of {
      table : string;
      row : int;
      attr : string;
      value : Value.t;
      target : string;
    }  (** A foreign-key value (after identifier propagation) that
          names no cluster of the referenced table.  [Null] foreign
          keys are not dangling: {!Dirty_db.propagate} legitimately
          maps unmatched keys to [Null]. *)

val severity : diagnostic -> severity

val to_string : diagnostic -> string
(** One-line human-readable rendering, e.g.
    ["error: table customer: cluster c2 probabilities sum to 0.7 (4 tuples), expected 1"]. *)

val pp : Format.formatter -> diagnostic -> unit

(** A foreign-key reference between two dirty tables, checked by
    {!db_diagnostics}: every non-null value of [table.fk_attr] must be
    a cluster identifier of [target]. *)
type reference = { ref_table : string; fk_attr : string; target : string }

val table_diagnostics : Dirty_db.table -> diagnostic list
(** All intra-table diagnostics, in row/cluster order.  One pass;
    never raises. *)

val db_diagnostics :
  ?references:reference list -> Dirty_db.t -> diagnostic list
(** Diagnostics of every table plus dangling-reference checks for the
    given [references].  A [reference] naming an unknown table or
    attribute yields a {!Missing_column} diagnostic rather than an
    exception. *)

val errors : diagnostic list -> diagnostic list
(** The [Error]-severity subset. *)

val is_clean : diagnostic list -> bool
(** True when the list contains no [Error]-severity diagnostic. *)
