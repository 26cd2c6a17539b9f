(** Persistent hash indexes on a single attribute of a base table.

    The paper's experiments create indexes on the identifier
    attributes before timing queries; {!Planner} uses these indexes
    for index joins when available.

    The layout is flat: the distinct keys sit in an open-addressing
    table sized by their number (not by the row count), and each
    key's row ids are stored next to each other, in row order, in one
    int array.  A probe ({!find}, {!offset}, {!row_id}) allocates
    nothing. *)

type t

val build : Dirty.Relation.t -> string -> t
(** [build rel attr] indexes [rel]'s rows by the value of [attr].
    @raise Not_found if [attr] is not in the schema. *)

val attr : t -> string
val lookup : t -> Dirty.Value.t -> int list
(** Row indices holding the value, in row order. *)

val find : t -> Dirty.Value.t -> int
(** [find t v] is the number of [v]'s key, or [-1] when no row holds
    [v].  The row ids of key [k] are [row_id t p] for [p] from
    [offset t k] to [offset t (k + 1) - 1], in row order. *)

val offset : t -> int -> int
val row_id : t -> int -> int
val distinct_keys : t -> int
val cardinality : t -> int

val hash_value : Dirty.Value.t -> int
(** A hash that allocates nothing and agrees with
    {!Dirty.Value.equal}: [Int 2] and [Float 2.0] hash alike, and so
    do all NaNs.  The grouping kernel hashes its keys with it too. *)

val mix : int -> int
(** The 63-bit finalizer {!hash_value} ends with; combines hashes of
    several values into one. *)
