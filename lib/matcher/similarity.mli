(** Record similarity for tuple matching.

    Similarities are in [0, 1]; 1 means identical.  The record-level
    similarity averages per-attribute similarities, where each
    attribute uses a type-appropriate measure:

    - strings: 1 − normalized Levenshtein distance (with a token-set
      Jaccard alternative for multi-word fields),
    - numbers: 1 − |a − b| / max(|a|, |b|, 1),
    - NULLs: similarity 1 to another NULL, 0 to anything else. *)

val string_similarity : string -> string -> float
(** Edit-distance based. *)

val token_jaccard : string -> string -> float
(** Jaccard similarity of whitespace-token sets (case-folded). *)

val value_similarity : Dirty.Value.t -> Dirty.Value.t -> float

val record_similarity :
  ?weights:float list ->
  Dirty.Relation.t ->
  attrs:string list ->
  int ->
  int ->
  float
(** [record_similarity rel ~attrs i j] compares rows [i] and [j] on
    the given attributes; [weights] (default all 1) weight the
    per-attribute similarities. *)
