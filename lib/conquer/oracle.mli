(** The candidate-semantics reference interpreter.

    {!Candidates} enumerates candidate databases; this module packages
    that enumeration as the {e specification oracle} the differential
    fuzzing harness tests the production path against.  It evaluates
    a query AST over any dirty database by materializing every
    candidate (guarded by a size budget) and summing candidate
    probabilities per distinct answer tuple — Dfn 5 executed
    literally.  Each candidate is answered by {!Reference.eval}, which
    shares no code with the engine, the rewriting or the
    rewritability check, so an engine bug cannot agree with itself.
    Queries outside the reference's subset raise
    {!Reference.Unsupported}.

    The oracle is exponential in the number of multi-tuple clusters;
    the guard turns an over-budget database into the typed exception
    {!Too_many_candidates} so harness code can skip rather than
    stall. *)

exception Too_many_candidates of { count : float; limit : int }

val default_max_candidates : int
(** 1_000_000, matching {!Candidates.fold}. *)

val candidate_count : Dirty.Dirty_db.t -> float
(** Number of candidate databases (as a float; it overflows 63-bit
    integers quickly). *)

val within_budget : ?max_candidates:int -> Dirty.Dirty_db.t -> bool

val answers :
  ?max_candidates:int -> Dirty.Dirty_db.t -> Sql.Ast.query -> Dirty.Relation.t
(** Reference clean answers: the query's output schema extended with
    [clean_prob], sorted by the answer columns.
    @raise Too_many_candidates when the database is over budget. *)

val answer_probabilities :
  ?max_candidates:int ->
  Dirty.Dirty_db.t ->
  Sql.Ast.query ->
  (Dirty.Relation.row * float) list
(** The same answers as an association list keyed on the answer tuple
    (probability column not included in the key). *)

val nonempty_probability :
  ?max_candidates:int -> Dirty.Dirty_db.t -> Sql.Ast.query -> float
(** Probability mass of the candidates on which the query returns at
    least one row. *)

(** {1 Differential comparison} *)

type mismatch = {
  detail : string;  (** human-readable description *)
  row : Dirty.Relation.row option;
      (** the answer tuple (without probability) the relations
          disagree on, when the disagreement is row-level *)
  oracle_prob : float option;  (** [None]: the oracle lacks the row *)
  actual_prob : float option;  (** [None]: the candidate lacks the row *)
}

val mismatch_to_string : mismatch -> string

val compare_answers :
  ?eps:float ->
  oracle:Dirty.Relation.t ->
  Dirty.Relation.t ->
  (unit, mismatch) result
(** Compare two answer relations whose last column is the probability,
    keyed on all other columns, with absolute tolerance [eps] (default
    1e-9) on the probabilities.  Returns the first disagreement:
    differing arity, a row only one side has, or a probability gap. *)

val refute :
  ?eps:float ->
  ?max_candidates:int ->
  Dirty.Dirty_db.t ->
  Sql.Ast.query ->
  Dirty.Relation.t ->
  mismatch option
(** [refute db q candidate] runs the oracle on [(db, q)] and returns
    the disagreement with [candidate] if there is one — the witness
    that a claimed clean-answer relation is wrong.
    @raise Too_many_candidates when the database is over budget. *)
