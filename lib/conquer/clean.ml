open Dirty

let log_src = Logs.Src.create "conquer.clean" ~doc:"clean query answering"

module Log = (val Logs.src_log log_src)

type session = {
  dirty : Dirty_db.t;
  engine : Engine.Database.t;
  env : Dirty_schema.env;
  indexed : bool;  (* identifiers indexed and tables analyzed *)
}

let m_sessions =
  Telemetry.Metrics.counter "conquer.sessions" ~help:"clean-answer sessions created"

let m_queries =
  Telemetry.Metrics.counter "conquer.queries"
    ~help:"clean-answer queries served (all modes)"

let m_clusters_indexed =
  Telemetry.Metrics.counter "conquer.clusters_indexed"
    ~help:"identifier-index entries built at session creation"

(* wrap a query entry point in a root span carrying the query mode *)
let spanned mode f =
  Telemetry.Metrics.inc m_queries;
  Telemetry.Span.with_ ~name:"conquer.answers" ~attrs:[ ("mode", mode) ] f

(* The one build path.  [prev], the session this one replaces, lends
   every identifier index and statistics column whose cells are
   physically unchanged; a fresh session is the case with no [prev]. *)
let build ?prev ~index_identifiers dirty =
  Telemetry.Metrics.inc m_sessions;
  Telemetry.Span.with_ ~name:"conquer.session_create" @@ fun () ->
  let prev = Option.map (fun p -> p.engine) prev in
  let engine = Engine.Database.create () in
  List.iter
    (fun (t : Dirty_db.table) ->
      Engine.Database.add_relation engine ~name:t.name t.relation;
      if index_identifiers then begin
        Engine.Database.create_index ?prev engine ~table:t.name ~attr:t.id_attr;
        Engine.Database.analyze ?prev engine t.name;
        Telemetry.Metrics.inc
          ~n:(Relation.cardinality t.relation)
          m_clusters_indexed
      end)
    (Dirty_db.tables dirty);
  let reuse = Engine.Database.reuse ?prev engine in
  Telemetry.Span.add_attr "tables_reused" (string_of_int reuse.tables_reused);
  Telemetry.Span.add_attr "columns_analyzed" (string_of_int reuse.columns_analyzed);
  {
    dirty;
    engine;
    env = Dirty_schema.of_dirty_db dirty;
    indexed = index_identifiers;
  }

let create ?(index_identifiers = true) dirty = build ~index_identifiers dirty
let derive prev dirty = build ~prev ~index_identifiers:prev.indexed dirty

let dirty_db s = s.dirty
let engine s = s.engine
let env s = s.env

let check s sql = Rewritable.check s.env (Sql.Parser.parse_query sql)

let rewrite s sql =
  match Rewrite.rewrite_checked s.env (Sql.Parser.parse_query sql) with
  | Ok q -> Ok (Sql.Pretty.query_to_string q)
  | Error vs -> Error vs

let answers ?config s sql =
  spanned "rewritten" @@ fun () ->
  let q = Sql.Parser.parse_query sql in
  let rewritten = Rewrite.rewrite_exn s.env q in
  Log.debug (fun m -> m "rewritten query:@\n%a" Sql.Pretty.pp_query rewritten);
  let rel = Engine.Database.query_ast ?config s.engine rewritten in
  Telemetry.Span.add_attr "answers" (string_of_int (Relation.cardinality rel));
  rel

let rewritten_ast s sql =
  Rewrite.rewrite_exn s.env (Sql.Parser.parse_query sql)

let top_answers ?config ~k s sql =
  let q = rewritten_ast s sql in
  let by_prob : Sql.Ast.order_item =
    { o_expr = Sql.Ast.col Rewrite.prob_column; desc = true }
  in
  Engine.Database.query_ast ?config s.engine
    { q with order_by = [ by_prob ]; limit = Some k }

(* ---- graceful degradation under execution budgets ---- *)

type partial = { rows : Relation.t; truncated : bool; cancelled : bool }

let partial_of (rows, { Engine.Database.truncated; cancelled }) =
  { rows; truncated; cancelled }

let answers_ast_within ?config ?cancel s q =
  Engine.Database.query_ast_within ?config ?cancel s.engine q

let answers_within ?config ?cancel s sql =
  spanned "rewritten-within" @@ fun () ->
  let q = Sql.Parser.parse_query sql in
  let rewritten = Rewrite.rewrite_exn s.env q in
  Log.debug (fun m -> m "rewritten query:@\n%a" Sql.Pretty.pp_query rewritten);
  partial_of
    (Engine.Database.query_ast_within ?config ?cancel s.engine rewritten)

let top_answers_within ?config ?cancel ~k s sql =
  let q = rewritten_ast s sql in
  let by_prob : Sql.Ast.order_item =
    { o_expr = Sql.Ast.col Rewrite.prob_column; desc = true }
  in
  partial_of
    (Engine.Database.query_ast_within ?config ?cancel s.engine
       { q with order_by = [ by_prob ]; limit = Some k })

let answers_above ?config ~threshold s sql =
  let q = rewritten_ast s sql in
  (* the HAVING predicate re-states the SUM aggregate; the engine
     matches aggregate calls syntactically, so reuse the select item's
     expression *)
  let sum_expr =
    match q.select with
    | Items items -> (List.nth items (List.length items - 1)).expr
    | Star -> assert false
  in
  let having = Sql.Ast.Binop (Ge, sum_expr, Sql.Ast.lit_float threshold) in
  Engine.Database.query_ast ?config s.engine { q with having = Some having }

let answers_unchecked ?config s sql =
  let q = Sql.Parser.parse_query sql in
  Engine.Database.query_ast ?config s.engine (Rewrite.rewrite_clean s.env q)

let answers_oracle ?max_candidates s sql =
  Candidates.clean_answers ?max_candidates s.dirty (Sql.Parser.parse_query sql)

let original ?config s sql =
  spanned "original" @@ fun () ->
  Engine.Database.query_ast ?config s.engine (Sql.Parser.parse_query sql)

let consistent_answers ?config ?(eps = 1e-9) s sql =
  let with_probs = answers ?config s sql in
  let schema = Relation.schema with_probs in
  let prob_idx = Schema.index_of schema Rewrite.prob_column in
  let certain =
    Relation.filter
      (fun row ->
        match Value.to_float row.(prob_idx) with
        | Some p -> p >= 1.0 -. eps
        | None -> false)
      with_probs
  in
  let keep =
    List.filter (fun n -> n <> Rewrite.prob_column) (Schema.names schema)
  in
  Relation.project certain keep

let answer_probability rel row =
  ignore rel;
  match row with
  | [||] -> invalid_arg "Clean.answer_probability: empty row"
  | _ -> (
    match Value.to_float row.(Array.length row - 1) with
    | Some p -> p
    | None -> invalid_arg "Clean.answer_probability: non-numeric probability")
