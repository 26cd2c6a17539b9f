(** Mutual information between a clustering variable C and a value
    variable V (Section 4.1.3).

    A clustering is a list of [(p(c), p(V|c))] pairs; the cluster
    priors must sum to 1 and each conditional must be normalized. *)

val mutual_information : (float * Dist.t) list -> float
(** [I(C;V) = Σ_c p(c) Σ_v p(v|c) log₂ (p(v|c) / p(v))] with
    [p(v) = Σ_c p(c) p(v|c)]. *)

val merge_loss : total:float -> Dcf.t -> Dcf.t -> rest:Dcf.t list -> float
(** Direct computation of [I(C;V) − I(C';V)] where C consists of the
    two clusters plus [rest] and C' merges the two.  Used in tests to
    validate the {!Dcf.information_loss} shortcut (the shortcut does
    not need [rest]). *)
