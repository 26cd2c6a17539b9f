(** The normalized tuple/value matrix M of Section 4.1.1 (Table 1).

    Row [t] of the matrix holds the conditional distribution
    [p(v | t)]: probability [1/m] on each of the [m] attribute values
    appearing in tuple [t], zero elsewhere.  The matrix is stored
    sparsely: each row's interned symbols, in ascending order. *)

type t

val of_relation : ?attrs:string list -> Dirty.Relation.t -> t
(** Build the matrix over the given attributes (default: all
    attributes of the relation).  Values are interned per attribute
    position. @raise Not_found if an attribute is missing. *)

val num_rows : t -> int
val attrs : t -> string list
val interning : t -> Interning.t

val row_dist : t -> int -> Infotheory.Dist.t
(** [p(v | t)]: uniform over the row's symbols. *)

val row_dcf : t -> int -> Infotheory.Dcf.t
(** Singleton-cluster DCF of the row (weight 1). *)

val entry : t -> int -> attr:int -> value:Dirty.Value.t -> float
(** The matrix entry M[t, (attr, value)] after normalization: [1/m]
    when the tuple's [attr] equals [value], else 0. *)
