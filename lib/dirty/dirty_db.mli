(** Dirty databases (Dfn 2 of the paper).

    A dirty database is a set of named dirty tables.  Each dirty
    table is a relation that carries two designated attributes:

    - an {e identifier} attribute holding the cluster identifier
      produced by a tuple-matching tool (duplicate tuples share the
      identifier value), and
    - a {e probability} attribute [prob] holding the tuple's
      probability of being in the clean database.

    The probabilities within each cluster must sum to 1. *)

type table = private {
  name : string;
  relation : Relation.t;
  id_attr : string;
  prob_attr : string;
  clustering : Cluster.t;
}

type t

exception Invalid of string
(** Raised by the validating constructors. *)

(** {1 Tables} *)

val make_table :
  ?validate:bool ->
  name:string ->
  id_attr:string ->
  prob_attr:string ->
  Relation.t ->
  table
(** Wrap a relation that already has identifier and probability
    columns.  When [validate] (default [true]), checks that
    probabilities lie in [0,1] and sum to 1 (within {!tolerance})
    inside every cluster.
    @raise Invalid when validation fails or a column is missing. *)

val of_clean :
  name:string -> id_attr:string -> ?prob_attr:string -> Relation.t -> table
(** Treat a clean relation as dirty: every tuple is its own cluster
    with probability 1.  A [prob] column (named [prob_attr], default
    ["prob"]) is appended, and [id_attr] must be an existing unique
    column. *)

val with_probabilities : table -> float array -> table
(** Replace the probability column (one entry per row, row order).
    Validation is re-run. *)

val tolerance : float
(** Absolute tolerance on per-cluster probability sums (1e-6). *)

val row_probability : table -> int -> float
(** Probability of the i-th row. @raise Invalid if the stored value is
    not numeric. *)

val cluster_rows : table -> Value.t -> int list
(** Row indices of the cluster named by the identifier value. *)

val table_validate : table -> string list
(** Human-readable list of violations (empty when the table is a valid
    dirty table). *)

(** {1 Databases} *)

val empty : t
val add_table : t -> table -> t
(** @raise Invalid if a table with the same name exists. *)

val find_table : t -> string -> table
(** @raise Not_found *)

val find_table_opt : t -> string -> table option
val table_names : t -> string list
val tables : t -> table list
val validate : t -> string list

(** {1 Identifier propagation}

    Tuple matchers emit cluster identifiers per relation; foreign keys
    still reference the original keys of the referenced relation.
    [propagate] rewrites them to reference cluster identifiers, as the
    paper's pre-processing step does. *)

val propagate :
  src:table ->
  src_key:string ->
  dst:table ->
  fk_attr:string ->
  out_attr:string ->
  table
(** [propagate ~src ~src_key ~dst ~fk_attr ~out_attr] builds the map
    from [src]'s original key ([src_key], unique per tuple) to [src]'s
    cluster identifier, then stores, for every [dst] tuple, the image
    of its [fk_attr] value under that map into column [out_attr]
    (appended if absent, overwritten otherwise).  Unmatched foreign
    keys map to [Null].
    @raise Invalid if [src_key] values are not unique. *)
