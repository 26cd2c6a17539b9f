(** Logical/physical query plans.

    Plans are produced by {!Planner} and evaluated by {!Exec}.
    Expressions inside plan nodes are resolved against the node's
    input schema when the node is instantiated, not per row. *)

type t =
  | Scan of { table : string; alias : string }
      (** Base-table scan.  The output schema qualifies every
          attribute as ["alias.attribute"]. *)
  | Filter of { input : t; pred : Sql.Ast.expr }
  | Project of { input : t; items : (Sql.Ast.expr * string) list }
      (** Computes each expression; output attribute names are the
          given (unique) names. *)
  | Hash_join of {
      left : t;
      right : t;
      left_keys : Sql.Ast.expr list;
      right_keys : Sql.Ast.expr list;
      keep : string list option;
          (** the output columns some operator above reads, as
              qualified names in input order; [None] keeps them all *)
    }
      (** Equi-join; builds a hash table on the right input and emits
          each matching pair narrowed to [keep]. *)
  | Index_join of {
      left : t;
      table : string;
      alias : string;
      left_keys : Sql.Ast.expr list;
      right_attrs : string list;
          (** unqualified attribute names of [table]; the first one
              must carry a persistent index *)
      keep : string list option;  (** as for [Hash_join] *)
    }
      (** Probes a persistent index of the base table [table] instead
          of building a transient hash table. *)
  | Left_outer_join of {
      left : t;
      right : t;
      on : Sql.Ast.expr;
    }
      (** SQL LEFT OUTER JOIN: every left row is kept; right columns
          are NULL when no right row satisfies [on] (evaluated over
          the concatenated row).  The executor uses a hash path when
          [on] contains an equality splitting across the inputs. *)
  | Cross of t * t
  | Aggregate of {
      input : t;
      group_by : Sql.Ast.expr list;
      items : (Sql.Ast.expr * string) list;
      having : Sql.Ast.expr option;
    }
  | Sort of { input : t; keys : (Sql.Ast.expr * bool) list }
      (** [(expr, desc)] sort keys, leftmost major. *)
  | Distinct of t
  | Limit of t * int

val pp : Format.formatter -> t -> unit
(** EXPLAIN-style indented rendering. *)

val to_string : t -> string
