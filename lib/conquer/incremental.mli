(** Incrementally maintained clean-answer views.

    The Definition 7 rewriting aggregates [SUM(prod(prob))] per answer
    group, and clusters are independent events: an update batch can
    only change the probability mass of answer groups that some join
    tuple involving a {e touched} cluster contributes to.  A
    materialized view therefore keeps, next to the answer relation, a
    provenance index from [(table, cluster)] to the answer groups it
    has ever contributed to (built with the same ungrouped witness
    rewriting {!Provenance} uses).  On {!refresh}:

    + the affected group set is the index image of the touched
      clusters, plus the groups of every new-state join tuple that
      involves a touched cluster (found by re-running the witness
      query restricted to the touched cluster identifiers);
    + the affected groups are recomputed exactly by the rewritten
      query conjoined with a group-membership predicate, and spliced
      into the materialized relation (vanished groups drop out);
    + the index only ever gains entries — stale entries cost a
      redundant recomputation, never a wrong answer.

    The view falls back to full re-execution (and full index rebuild)
    when the query is not localizable (ORDER BY / LIMIT / DISTINCT:
    splicing can't preserve those) or when the affected set exceeds
    [max_affected] — recomputing most groups individually would cost
    more than one scan.  Fallbacks are reported in {!stats} and
    counted by the [conquer.incremental.fallbacks] metric.

    Floats (DESIGN §5k): group recomputation folds the same per-group
    products in the same relative row order as a from-scratch run, so
    results are bit-identical to it on any input, off the dyadic
    probability grid included. *)

open Dirty

type t

type stats = {
  s_touched : int;  (** touched clusters relevant to this view's query *)
  s_affected : int;  (** answer groups recomputed *)
  s_fallback : string option;
      (** [Some reason] when the refresh fell back to full
          re-execution; [None] on the incremental path *)
}

val materialize : ?config:Engine.Planner.config -> Clean.session -> string -> t
(** Execute the rewritten query once and build the provenance index.
    @raise Rewrite.Not_rewritable when the query is outside the
    rewritable class, [Invalid_arg] on [SELECT *]. *)

val materialize_query :
  ?config:Engine.Planner.config -> Clean.session -> Sql.Ast.query -> t
(** {!materialize} over an already-parsed query (the fuzz harness's
    entry point). *)

val answers : t -> Relation.t
(** The materialized clean answers (answer columns + [clean_prob]).
    Row order is maintenance order: refreshed groups keep their
    position, new groups append. *)

val sql : t -> string

val refresh :
  ?config:Engine.Planner.config ->
  ?max_affected:int ->
  t ->
  Clean.session ->
  touched:(string * Value.t) list ->
  stats
(** Bring the view up to date with [session] (a session over the
    updated database) given the clusters touched by the update batch
    ({!Delta.outcome.touched}).  [max_affected] (default 256) bounds
    the incremental path; larger affected sets re-execute in full. *)
