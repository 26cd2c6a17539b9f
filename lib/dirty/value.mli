(** Typed SQL values.

    The engine manipulates dynamically typed values drawn from a small
    set of SQL-like types.  [Null] follows a simplified SQL semantics:
    it compares equal to itself for grouping purposes ([compare]) but
    all arithmetic involving [Null] yields [Null], and comparison
    predicates on [Null] are false (see {!Engine.Expr}). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of int  (** days since 1970-01-01; a separate type so that date
                     literals pretty-print back as dates *)

type ty = TBool | TInt | TFloat | TString | TDate

(** {1 Classification} *)

val type_of : t -> ty option
(** [type_of v] is [None] for [Null]. *)

val ty_name : ty -> string

val is_null : t -> bool

(** {1 Ordering and equality} *)

val compare : t -> t -> int
(** Total order used for sorting and grouping.  [Null] sorts first;
    ints and floats compare numerically with each other — exactly,
    without rounding the int to float, so distinct ints above 2{^53}
    never collapse onto the same float and the order stays transitive;
    values of incomparable types are ordered by their type tag so that
    the order stays total. *)

val equal : t -> t -> bool

val hash : t -> int
(** Consistent with [equal] (numeric values hash by their float
    image). *)

(** {1 Numeric coercion} *)

val to_float : t -> float option
val to_int : t -> int option

(** {1 Date support} *)

val date_of_string : string -> t
(** Parse ["YYYY-MM-DD"], written in ASCII digits only, into [Date].
    @raise Invalid_argument on any other syntax (signs, [_], [0x]
    prefixes, short parts) or a day the month does not have
    (Gregorian leap rule). *)

val string_of_date : int -> string

(** {1 Parsing and printing} *)

val parse : string -> t
(** Best-effort parse used by the CSV loader: integers, then floats,
    then dates, then booleans, empty string as [Null], anything else
    as [String].  Plain decimal ints and decimals, [YYYY-MM-DD] dates
    and letter-initial words are classified directly, without an
    exception or a trimmed copy; every other spelling goes through the
    general rules ([String.trim], [int_of_string], [float_of_string]),
    which give the same value for those. *)

val parse_sub : string -> int -> int -> t
(** [parse_sub s pos len] is [parse (String.sub s pos len)], copying
    only what a [String] value or the general rules need. *)

val to_string : t -> string
(** Display form ([Null] prints as ["NULL"], dates as
    ["YYYY-MM-DD"]).  Non-integral floats print with 6 significant
    digits, so this form does not round-trip through {!parse}. *)

val to_exact_string : t -> string
(** Storage form: {!to_string}, except that a float prints as the
    shortest of ["%.15g"] and ["%.17g"] that reads back to the same
    bits, and always with a ['.'] or an exponent.  [parse
    (to_exact_string (Float f))] is [Float f] bit for bit for every
    float; the store's table files and the delta journal write cells
    this way. *)

val add_exact_string : Buffer.t -> t -> unit
(** [Buffer.add_string buf (to_exact_string v)], without building the
    string for an int or a float.  Ints, dates and the floats in
    \[1e-4, 1e15) (in magnitude) are written digit by digit, without
    [Printf]. *)

val to_sql : t -> string
(** SQL literal form (strings quoted with escaping, dates as
    [DATE 'YYYY-MM-DD']). *)

val pp : Format.formatter -> t -> unit
