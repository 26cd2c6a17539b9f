(** Hash indexes, and the one key table the engine numbers keys with.

    The paper's experiments create indexes on the identifier
    attributes before timing queries; {!Planner} uses these indexes
    for index joins when available.  A hash join indexes its build
    side the same way, and the grouping kernel numbers its groups with
    the same key table.

    {!Keys} numbers distinct keys of [arity] values in first-occurrence
    order.  The keys sit in one flat store, each with one hash, and an
    open-addressing table of key numbers (linear probing, at most half
    full) finds them, so it sizes with the distinct keys, not the rows.
    An index is a key table plus each key's row ids, next to each
    other, in row order, in one int array.  A probe ({!find}, then
    [offsets] and [row_ids]) allocates nothing and writes nothing, so
    domains can share an index. *)

(** The key table. *)
module Keys : sig
  type t

  val create : int -> t
  (** An empty table of keys of the given arity. *)

  val find_or_add : t -> Dirty.Value.t array -> int
  (** [find_or_add t key] is the number of the key in [key.(0) ..
      key.(arity - 1)], numbered next (and copied out of [key]) when it
      is new.  Keys hash with {!hash_value} and compare with [==], then
      {!Dirty.Value.equal}.  Allocates nothing unless the table
      grows. *)

  val count : t -> int
  (** The number of keys; they are numbered [0 .. count - 1]. *)

  val blit : t -> int -> Dirty.Value.t array -> unit
  (** [blit t k dst] copies key [k]'s values to [dst.(0 .. arity - 1)]. *)
end

type t = private {
  keys : Keys.t;
  offsets : int array;  (** [distinct_keys + 1] entries *)
  row_ids : int array;
      (** key [k]'s row ids are [row_ids.(offsets.(k)) ..
          row_ids.(offsets.(k + 1) - 1)], ascending *)
}

val of_rows : (Dirty.Relation.row -> Dirty.Value.t) array -> Dirty.Relation.row array -> t
(** [of_rows fns rows] indexes [rows] by the key [fns.(0) row ..
    fns.(n - 1) row].  Every row is indexed, including rows whose key
    has a NULL part. *)

val build : Dirty.Relation.t -> string -> t
(** [build rel attr] indexes [rel]'s rows by the value of [attr].
    @raise Not_found if [attr] is not in the schema. *)

val find : t -> Dirty.Value.t array -> int
(** [find t key] is the number of the key in [key.(0) .. key.(n - 1)]
    ([key] may be longer), or [-1] when no row holds it. *)

val lookup : t -> Dirty.Value.t array -> int list
(** Row indices holding the key, in row order. *)

val distinct_keys : t -> int
val cardinality : t -> int

val hash_value : Dirty.Value.t -> int
(** A hash that allocates nothing and agrees with
    {!Dirty.Value.equal}: [Int 2] and [Float 2.0] hash alike, and so
    do all NaNs.  A key of several values combines theirs. *)
