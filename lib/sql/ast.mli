(** Abstract syntax for the SQL subset.

    The subset covers the paper's needs: select-project-join queries
    with conjunctive and disjunctive predicates, grouping,
    aggregation, HAVING, ORDER BY and LIMIT.  The rewriting of
    Section 3 maps an SPJ query in this AST to another query in this
    AST. *)

type column = { table : string option; name : string }
(** A possibly qualified column reference, e.g. [c.balance] or
    [balance]. *)

type binop =
  | Eq | Neq | Lt | Le | Gt | Ge
  | Add | Sub | Mul | Div
  | And | Or

type unop = Not | Neg

type agg_fun = Count | Sum | Avg | Min | Max

type table_ref = { table : string; t_alias : string option }

type expr =
  | Lit of Dirty.Value.t
  | Col of column
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Like of expr * string  (** SQL LIKE with [%] and [_] wildcards *)
  | Not_like of expr * string
  | In_list of expr * Dirty.Value.t list
  | Between of expr * expr * expr  (** [Between (e, lo, hi)] *)
  | Is_null of expr
  | Is_not_null of expr
  | Agg of agg_fun * expr option
      (** aggregate call; a [None] argument encodes count-star *)
  | In_query of expr * query
      (** [e IN (SELECT ...)]; the subquery must be uncorrelated and
          single-column *)
  | Exists of query  (** [EXISTS (SELECT ...)], uncorrelated *)
  | Scalar_subquery of query
      (** a parenthesized single-column subquery used as a value; must
          return at most one row (empty gives NULL) *)

and select_item = { expr : expr; alias : string option }

and select_list =
  | Star
  | Items of select_item list

and order_item = { o_expr : expr; desc : bool }

and outer_join = { oj_table : table_ref; oj_on : expr }
(** A [LEFT [OUTER] JOIN oj_table ON oj_on] applied, in order, after
    the inner-join block of the FROM clause. *)

and query = {
  distinct : bool;
  select : select_list;
  from : table_ref list;
      (** comma/inner-join block; inner [JOIN ... ON] conditions are
          desugared into [where] by the parser *)
  outer_joins : outer_join list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : order_item list;
  limit : int option;
}

val col : ?table:string -> string -> expr
val lit_int : int -> expr
val lit_float : float -> expr
val lit_string : string -> expr

val conj : expr list -> expr option
(** AND-fold a list of predicates; [None] for the empty list. *)

val conjuncts : expr -> expr list
(** Flatten a predicate into its top-level AND-ed conjuncts. *)

val has_aggregates : expr -> bool
(** Aggregates of the expression's own scope; subqueries are opaque. *)

val has_subqueries : expr -> bool

val query_has_subqueries : query -> bool
(** True when any clause of the query contains a subquery (one level;
    does not recurse into the subqueries themselves). *)

val expr_columns : expr -> column list
(** All column references in the expression's own scope, in syntactic
    order (columns inside subqueries are excluded — subqueries must be
    uncorrelated). *)

val equal_expr : expr -> expr -> bool
