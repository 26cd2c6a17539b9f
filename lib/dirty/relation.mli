(** Materialized relations: a schema and an array of rows.

    Relations are bag-semantics (duplicate rows allowed) as in SQL.
    Rows are immutable by convention: operations return fresh
    relations. *)

type row = Value.t array
type t

val create : Schema.t -> row list -> t
(** @raise Invalid_argument if a row's arity differs from the schema's. *)

val of_array : Schema.t -> row array -> t
val schema : t -> Schema.t
val cardinality : t -> int
val rows : t -> row array
(** The backing array; callers must not mutate it. *)

val row_list : t -> row list
val get : t -> int -> row
val is_empty : t -> bool

val iter : (row -> unit) -> t -> unit
val fold : ('a -> row -> 'a) -> 'a -> t -> 'a
val filter : (row -> bool) -> t -> t
val map_rows : Schema.t -> (row -> row) -> t -> t

val column : t -> string -> Value.t array
(** All values of the named attribute, in row order. *)

val shares_column : t -> t -> string -> bool
(** [shares_column a b name] holds when [a] and [b] have the same
    cardinality and, row for row, physically the same ([==]) value in
    column [name] — the column provably did not change, so anything
    computed from it carries over.  [false] when either lacks the
    column. *)

val value : t -> row -> string -> Value.t
(** [value t row attr] looks up [attr] in [t]'s schema and returns the
    row's value there. *)

val project : t -> string list -> t
val sort_by : (row -> row -> int) -> t -> t
module Row_tbl : Hashtbl.S with type key = row
(** Hash tables keyed by whole rows: two rows are the same key when
    they have the same arity and {!Value.equal} cells, and a row hashes
    as [fold (acc * 31 + Value.hash v) 7].  The one row-keyed table
    for every module that groups rows. *)

val distinct : t -> t
(** Set-semantics copy: removes duplicate rows (first occurrence order
    preserved). *)

val append : t -> t -> t
(** Bag union of two relations over the same schema.
    @raise Invalid_argument when schemas differ. *)

val equal_as_bags : t -> t -> bool
(** True when both relations contain the same rows with the same
    multiplicities (order-insensitive). *)

val pp : ?max_rows:int -> Format.formatter -> t -> unit
(** Table-style printer used by the CLI and the examples. *)

val to_string : ?max_rows:int -> t -> string
