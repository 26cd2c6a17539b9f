(** The class of rewritable queries (Dfn 7).

    An SPJ query is rewritable when:

    + every join involves the identifier of at least one relation,
    + its join graph is a tree,
    + no relation appears in the FROM clause more than once (no
      self-joins), and
    + the identifier of the relation at the root of the join graph
      appears in the SELECT clause.

    For such queries {!Rewrite.rewrite_clean} computes the clean
    answers on every dirty database (Theorem 1). *)

type violation =
  | Not_spj of string
      (** the query has aggregates/grouping/DISTINCT — outside the
          class *)
  | Unknown_dirty_table of string
      (** a FROM relation has no identifier/probability metadata *)
  | Join_without_identifier of Sql.Ast.expr  (** violates condition 1 *)
  | Non_equality_join of Sql.Ast.expr
      (** a cross-relation predicate that is not a column equality *)
  | Graph_not_tree of { roots : string list }  (** violates condition 2 *)
  | Repeated_relation of string  (** violates condition 3 *)
  | Root_identifier_not_selected of { root : string; id_attr : string }
      (** violates condition 4 *)
  | Unresolved_column of string

val violation_to_string : violation -> string

val check :
  Dirty_schema.env -> Sql.Ast.query -> (Join_graph.t, violation list) result
(** All violations (empty list never returned as [Error]); on success
    the query's join graph. *)

val root : Join_graph.t -> string
(** The root of a tree-shaped join graph.
    @raise Invalid_argument if the graph is not a tree. *)
