(** Compilation of scalar expressions to row functions.

    Column references are resolved against a schema once, at
    compilation time; the resulting closure then runs per row without
    name lookups.

    Name resolution follows SQL scoping over qualified schemas: after
    planning, attribute names are of the form ["alias.column"].  A
    qualified reference [t.c] resolves to attribute ["t.c"]; an
    unqualified reference [c] resolves to the unique attribute named
    [c] or whose name ends in [".c"] — ambiguity is an error.

    Null semantics: arithmetic involving NULL yields NULL; comparison
    predicates involving NULL are false; [NOT] of NULL is false-like
    (NULL is not true).  This matches the paper's workloads, which do
    not rely on three-valued logic. *)

exception Type_error of string
exception Unbound_column of string
exception Ambiguous_column of string

val resolve : Dirty.Schema.t -> Sql.Ast.column -> int
(** Index of the attribute a column reference denotes.
    @raise Unbound_column / Ambiguous_column *)

val compile : Dirty.Schema.t -> Sql.Ast.expr -> Dirty.Relation.row -> Dirty.Value.t
(** @raise Unbound_column / Ambiguous_column at compile time;
    [Type_error] at evaluation time.
    @raise Type_error also at compile time when the expression
    contains an aggregate (aggregates are handled by the aggregation
    operator, not here). *)

val truth : Dirty.Value.t -> bool
(** SQL predicate truth: [Bool true] is true; [Bool false] and [Null]
    are false. @raise Type_error on other values. *)

val like_matcher : string -> string -> bool
(** [like_matcher pattern s] implements SQL LIKE ([%] = any sequence,
    [_] = any single character). *)

val columns_of : Sql.Ast.expr -> Sql.Ast.column list
(** Re-export of {!Sql.Ast.expr_columns} for convenience. *)
