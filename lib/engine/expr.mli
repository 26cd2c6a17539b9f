(** Compilation of scalar expressions to tuple functions.

    Column references are resolved against a schema once, at
    compilation time; the resulting closure then runs per row without
    name lookups.  It reads each column where a {!layout} puts it in a
    {!tuple}, so the same evaluator runs over a materialized row (the
    one-slot layout, {!rows}) and over the rows a pipeline's joins
    have matched so far, without copying them into one row.

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

type tuple = Dirty.Relation.row array
(** A row inside a pipeline: one row per joined input, the pipeline's
    source in slot 0. *)

type layout
(** Where each column of a schema is read in a tuple: a slot and a
    column of that slot's row. *)

val rows : int -> layout
(** [rows n] is the one-slot layout of a materialized row of [n]
    columns: column [j] is slot 0's column [j]. *)

val append : layout -> slot:int -> int -> layout
(** [append l ~slot n] is [l]'s columns followed by the [n] columns of
    the row in slot [slot]. *)

val narrow : layout -> int array -> layout
(** [narrow l positions] is the columns of [l] at [positions], in that
    order. *)

val gather : layout -> tuple -> Dirty.Relation.row
(** The layout's columns of a tuple as one row: a fresh array, or,
    under {!rows}, slot 0's row itself.  A tuple is reused from row to
    row, so whoever keeps a row gathers it. *)

val resolve : Dirty.Schema.t -> Sql.Ast.column -> int
(** Index of the attribute a column reference denotes.
    @raise Unbound_column / Ambiguous_column *)

val compile : Dirty.Schema.t -> layout -> Sql.Ast.expr -> tuple -> Dirty.Value.t
(** [compile schema layout e] resolves [e]'s columns by name in
    [schema] and reads them where [layout] puts them.  An
    [Add]/[Sub]/[Mul] tree over INTEGER- or FLOAT-typed columns and
    numeric literals runs on unboxed ints and floats; a tuple whose
    values do not have the schema's types (NULL among them) is
    evaluated by the generic boxed path instead, so the result is the
    same bit for bit either way.  The closure writes nothing, so it is
    safe to share across domains.
    @raise Unbound_column / Ambiguous_column at compile time;
    [Type_error] at evaluation time.
    @raise Type_error also at compile time when the expression
    contains an aggregate (aggregates are handled by the aggregation
    operator, not here). *)

val truth : Dirty.Value.t -> bool
(** SQL predicate truth: [Bool true] is true; [Bool false] and [Null]
    are false. @raise Type_error on other values. *)

val compile_pred : Dirty.Schema.t -> layout -> Sql.Ast.expr -> tuple -> bool
(** [compile_pred schema layout e] is [fun t -> truth (compile schema
    layout e t)]: the same bool on every row, the same [Type_error]s, the
    same compile-time errors, and the same short-circuit order.  AND,
    OR, comparisons, BETWEEN, IN lists, LIKE and IS [NOT] NULL return
    their bool without boxing it; NOT does so over an operand that
    never returns NULL.  A column compared with a literal of its
    schema type (in BETWEEN too) compares such cells directly rather
    than through {!Dirty.Value.compare}; other cells take the generic
    rule. *)

val like_matcher : string -> string -> bool
(** [like_matcher pattern s] implements SQL LIKE ([%] = any sequence,
    [_] = any single character). *)
