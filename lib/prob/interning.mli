(** Interning of attribute values into integer symbols.

    Section 4.1.1 requires the domain of each attribute to be "named
    in such a way that identical values from different attributes are
    treated as distinct values": the symbol space is keyed by the
    (attribute position, value) pair. *)

type t

val create : unit -> t

val intern : t -> attr:int -> Dirty.Value.t -> int
(** Symbol of the pair, allocating a fresh one on first sight, so
    symbols are numbered in first-seen order.  [attr] is a
    non-negative attribute position; values are equal when
    {!Dirty.Value.equal} says so. *)

val find_opt : t -> attr:int -> Dirty.Value.t -> int option
val size : t -> int

val attr_of : t -> int -> int
val value_of : t -> int -> Dirty.Value.t
