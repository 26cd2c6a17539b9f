(** SQL pretty-printer.

    The rewriting of Section 3 produces an SQL query; this module
    renders query ASTs back to SQL text so that rewritten queries can
    be displayed, logged, and re-parsed (round-tripping is covered by
    tests). *)

val expr_to_string : Ast.expr -> string
val query_to_string : Ast.query -> string

val pp_query : Format.formatter -> Ast.query -> unit
