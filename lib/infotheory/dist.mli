(** Sparse finite probability distributions over integer-coded
    symbols.

    Symbols are non-negative integers (callers intern their domain
    values, see {!Prob.Interning}); probabilities of symbols outside
    the support are zero.  All logarithms are base 2, so entropies and
    divergences are in bits.

    A distribution is stored as two parallel arrays: its support in
    ascending symbol order, and the masses.  Every operation visits
    the entries in that order. *)

type t

val of_assoc : (int * float) list -> t
(** Builds a distribution from (symbol, mass) pairs.  Masses for the
    same symbol accumulate; zero-mass entries are dropped.
    @raise Invalid_argument on negative mass. *)

val of_sorted : int array -> float array -> t
(** [of_sorted syms masses]: the distribution with mass [masses.(i)]
    on [syms.(i)].  The arrays are shared, not copied, so the caller
    must not modify them afterwards.
    @raise Invalid_argument unless the lengths agree, [syms] is
    strictly ascending and every mass is positive. *)

val uniform : int list -> t
(** Uniform distribution over the given (distinct) symbols. *)

val singleton : int -> t

val prob : t -> int -> float
val support : t -> int list
(** Symbols with non-zero mass, ascending. *)

val support_size : t -> int
val total_mass : t -> float
val is_normalized : ?eps:float -> t -> bool

val normalize : t -> t
(** Scale to total mass 1. @raise Invalid_argument on zero total
    mass. *)

val scale : float -> t -> t
(** Every mass times the weight; entries whose product is zero (a zero
    weight, or underflow) are dropped. *)

val mix : (float * t) list -> t
(** Weighted mixture [sum_i w_i * d_i]; weights need not sum to 1 (the
    result is not normalized unless they do and each [d_i] is).  An
    entry is [w_1·d_1(x)], then [+ w_2·d_2(x)], and so on; zero
    contributions are skipped and symbols of zero mixed mass dropped. *)

val fold : (int -> float -> 'a -> 'a) -> t -> 'a -> 'a

val entropy : t -> float
(** Shannon entropy in bits; 0·log 0 = 0. Assumes normalization. *)

val kl_divergence : t -> t -> float
(** [kl_divergence p q] = Σ p(x) log₂ (p(x)/q(x)).
    @raise Invalid_argument when p's support is not contained in
    q's (infinite divergence). *)

val js_divergence : ?w1:float -> ?w2:float -> t -> t -> float
(** Generalized Jensen–Shannon divergence with mixture weights [w1],
    [w2] (default 0.5 each):
    [w1·KL(p‖m) + w2·KL(q‖m)] with [m = w1·p + w2·q]. *)

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
