(** Candidate databases (Dfns 3–5) and the exact possible-worlds
    oracle.

    A candidate database picks exactly one tuple from every cluster of
    every dirty relation; its probability is the product of the chosen
    tuples' probabilities.  Enumerating candidates is exponential in
    the number of clusters — this module is the specification-level
    oracle used to validate the rewriting and as the naive baseline in
    the benchmarks, not the production query path. *)

type selection
(** A choice of one tuple per cluster for every table. *)

val chosen_rows : selection -> string -> int list
(** Row indices (ascending) chosen for the named table. *)

val count : Dirty.Dirty_db.t -> float
(** Number of candidate databases (as a float; it overflows 63-bit
    integers quickly). *)

val fold :
  ?max_candidates:int ->
  Dirty.Dirty_db.t ->
  ('a -> selection -> float -> 'a) ->
  'a ->
  'a
(** Fold over every candidate database with its probability.
    @raise Invalid_argument when the candidate count exceeds
    [max_candidates] (default [1_000_000]). *)

val candidate_relations :
  Dirty.Dirty_db.t -> selection -> (string * Dirty.Relation.t) list
(** Materialize the candidate database: each table restricted to the
    chosen rows (identifier and probability columns retained). *)

type evaluator = (string * Dirty.Relation.t) list -> Dirty.Relation.t
(** Answers a fixed query over one candidate database, given as
    {!candidate_relations}. *)

val engine_evaluator : Dirty.Dirty_db.t -> Sql.Ast.query -> evaluator
(** The query planned once on a bare engine over the dirty tables; each
    call swaps in the given relations and runs that plan.  Every
    per-world evaluation (candidates, samples, independent worlds)
    runs through one of these. *)

val clean_answers_with :
  ?max_candidates:int -> evaluator -> Dirty.Dirty_db.t -> Dirty.Relation.t
(** Clean answers by direct application of Dfn 5: answer the query on
    every candidate database with the evaluator, collect the distinct
    answer tuples, and sum the probabilities of the candidates
    producing each.  The result relation extends the query's output
    schema with a [clean_prob] column and is sorted by the answer
    columns. *)

val clean_answers :
  ?max_candidates:int ->
  Dirty.Dirty_db.t ->
  Sql.Ast.query ->
  Dirty.Relation.t
(** {!clean_answers_with} with the query planned once on the engine and
    run on each candidate. *)

val probability_that_nonempty :
  ?max_candidates:int -> Dirty.Dirty_db.t -> Sql.Ast.query -> float
(** Probability mass of the candidates on which the query, planned
    once on the engine and run on each candidate, returns at least one
    row (used to answer boolean queries). *)
