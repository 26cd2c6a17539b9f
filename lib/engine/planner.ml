open Dirty

type config = {
  pushdown : bool;
  use_indexes : bool;
  max_rows : int option;
  max_elapsed : float option;
  jobs : int;
  chunked : bool;
  spill_rows : int option;
  spill_dir : string option;
}

let default_config =
  {
    pushdown = true;
    use_indexes = true;
    max_rows = None;
    max_elapsed = None;
    jobs = 1;
    chunked = true;
    spill_rows = None;
    spill_dir = None;
  }

type env = {
  schema_of : string -> Schema.t option;
  stats_of : string -> Stats.t option;
  has_index : string -> string -> bool;
}

exception Plan_error of string

let plan_errorf fmt = Printf.ksprintf (fun s -> raise (Plan_error s)) fmt

let log_src = Logs.Src.create "engine.planner" ~doc:"SQL query planner"

module Log = (val Logs.src_log log_src)

(* ---- telemetry ---- *)

let m_plans =
  Telemetry.Metrics.counter "engine.planner.plans" ~help:"queries planned"

let m_stats_lookups =
  Telemetry.Metrics.counter "engine.planner.stats_lookups"
    ~help:"table statistics consulted while planning"

let m_selectivity_estimates =
  Telemetry.Metrics.counter "engine.planner.selectivity_estimates"
    ~help:"predicate selectivity estimations"

let m_join_candidates =
  Telemetry.Metrics.counter "engine.planner.join_candidates"
    ~help:"join-order candidates considered by the greedy search"

type binding = {
  alias : string;
  table : string;
  bare : Schema.t;  (* table schema with original names *)
  stats : Stats.t option;
}

(* ---- column ownership ---- *)

let owner_of_column bindings (c : Sql.Ast.column) =
  match c.table with
  | Some t -> (
    match List.find_opt (fun b -> b.alias = t) bindings with
    | Some b ->
      if Schema.mem b.bare c.name then b.alias
      else plan_errorf "column %s.%s not found" t c.name
    | None -> plan_errorf "unknown table alias %s" t)
  | None -> (
    match List.filter (fun b -> Schema.mem b.bare c.name) bindings with
    | [ b ] -> b.alias
    | [] -> plan_errorf "unbound column %s" c.name
    | _ :: _ :: _ -> plan_errorf "ambiguous column %s" c.name)

let aliases_of_expr bindings e =
  let cols = Sql.Ast.expr_columns e in
  List.sort_uniq String.compare (List.map (owner_of_column bindings) cols)

(* ---- conjunct classification ---- *)

type classified = {
  local : (string * Sql.Ast.expr list) list;  (* alias -> predicates *)
  edges : (string * Sql.Ast.expr * string * Sql.Ast.expr) list;
      (* (alias_a, expr_a, alias_b, expr_b) with expr_x over alias_x only *)
  residual : Sql.Ast.expr list;
}

let classify bindings where =
  let conjuncts = match where with None -> [] | Some w -> Sql.Ast.conjuncts w in
  let local = Hashtbl.create 8 in
  let edges = ref [] and residual = ref [] in
  List.iter
    (fun conjunct ->
      match aliases_of_expr bindings conjunct with
      | [] | [ _ ] ->
        let key = match aliases_of_expr bindings conjunct with
          | [ a ] -> a
          | _ -> (match bindings with b :: _ -> b.alias | [] -> assert false)
        in
        let existing = Option.value ~default:[] (Hashtbl.find_opt local key) in
        Hashtbl.replace local key (existing @ [ conjunct ])
      | [ _; _ ] -> (
        match (conjunct : Sql.Ast.expr) with
        | Binop (Eq, ea, eb) -> (
          match aliases_of_expr bindings ea, aliases_of_expr bindings eb with
          | [ xa ], [ xb ] when xa <> xb ->
            (* each key expression is tagged with its owning alias *)
            edges := (xa, ea, xb, eb) :: !edges
          | _ -> residual := conjunct :: !residual)
        | _ -> residual := conjunct :: !residual)
      | _ :: _ :: _ -> residual := conjunct :: !residual)
    conjuncts;
  {
    local =
      List.map
        (fun b -> (b.alias, Option.value ~default:[] (Hashtbl.find_opt local b.alias)))
        bindings;
    edges = List.rev !edges;
    residual = List.rev !residual;
  }

(* ---- cardinality estimation ---- *)

let base_estimate binding preds =
  let rows =
    match binding.stats with
    | Some s -> float_of_int (max 1 s.Stats.rows)
    | None -> 1000.0
  in
  List.fold_left
    (fun est pred ->
      Telemetry.Metrics.inc m_selectivity_estimates;
      est *. Stats.selectivity binding.stats pred)
    rows preds

let join_key_distinct binding (e : Sql.Ast.expr) =
  match e with
  | Col c -> (
    match Option.bind binding.stats (fun s -> Stats.column s c.name) with
    | Some { Stats.distinct; _ } when distinct > 0 -> float_of_int distinct
    | _ -> 10.0)
  | _ -> 10.0

(* ---- the planner ---- *)

let derive_output_names items =
  let taken = Hashtbl.create 8 in
  List.mapi
    (fun i ({ expr; alias } : Sql.Ast.select_item) ->
      let base =
        match alias with
        | Some a -> a
        | None -> (
          match (expr : Sql.Ast.expr) with
          | Col { name; _ } -> name
          | _ -> Printf.sprintf "expr%d" (i + 1))
      in
      let name =
        if not (Hashtbl.mem taken base) then base
        else
          let rec go k =
            let candidate = Printf.sprintf "%s_%d" base k in
            if Hashtbl.mem taken candidate then go (k + 1) else candidate
          in
          go 2
      in
      Hashtbl.replace taken name ();
      (expr, name))
    items

let resolves_against schema (e : Sql.Ast.expr) =
  try
    List.iter (fun c -> ignore (Expr.resolve schema c)) (Sql.Ast.expr_columns e);
    true
  with Expr.Unbound_column _ | Expr.Ambiguous_column _ -> false

(* ---- column pruning ----

   A join builds its output row anyway, so it copies only the columns
   some operator above it reads; scans and filters keep sharing base
   rows.  One pass over the finished plan records each join's kept
   columns, as qualified names.  A reference that does not resolve to
   exactly one column (unbound or ambiguous) keeps every column below
   it, so the executor reports it exactly as before. *)

(* the columns a node reads from its input, flagged by position;
   [None] is every column *)
type need = bool array option

let union (a : need) (b : need) : need =
  match a, b with Some a, Some b -> Some (Array.map2 ( || ) a b) | _ -> None

let reads schema exprs : need =
  let used = Array.make (Schema.arity schema) false in
  let column c = used.(Expr.resolve schema c) <- true in
  try
    List.iter (fun e -> List.iter column (Sql.Ast.expr_columns e)) exprs;
    Some used
  with Expr.Unbound_column _ | Expr.Ambiguous_column _ -> None

(* what one input of a join must keep: its share of [need] (the
   positions [ofs, ofs + arity schema) of the join's output), plus its
   own join keys *)
let side need ~ofs schema keys =
  union
    (Option.map (fun used -> Array.sub used ofs (Schema.arity schema)) need)
    (reads schema keys)

(* a join's keep list over its unpruned output [out]; [None] when
   nothing is dropped *)
let kept need out =
  match need with
  | Some used when Array.exists not used ->
    let names = ref [] in
    for i = Array.length used - 1 downto 0 do
      if used.(i) then names := (Schema.attribute_at out i).name :: !names
    done;
    Some !names
  | _ -> None

(* [pruner env plan] is the unpruned output schema of [plan], named as
   the executor names it, and the function that prunes [plan] given
   what its parent reads.  One bottom-up walk builds every schema
   once; the returned functions then run top-down. *)
let rec pruner env (plan : Plan.t) : Schema.t * (need -> Plan.t) =
  let table_schema table alias =
    match env.schema_of table with
    | Some s -> Schema.rename ~prefix:alias s
    | None -> plan_errorf "unknown table %s" table
  in
  let items_schema items =
    Schema.make (List.map (fun (_, n) -> (n, Value.TString)) items)
  in
  match plan with
  | Scan { table; alias } -> (table_schema table alias, fun _ -> plan)
  | Filter { input; pred } ->
    let s, prune = pruner env input in
    ( s,
      fun need -> Filter { input = prune (union need (reads s [ pred ])); pred }
    )
  | Project { input; items } ->
    let s, prune = pruner env input in
    ( items_schema items,
      fun _ -> Project { input = prune (reads s (List.map fst items)); items } )
  | Aggregate a ->
    let s, prune = pruner env a.input in
    let exprs = a.group_by @ List.map fst a.items @ Option.to_list a.having in
    ( items_schema a.items,
      fun _ -> Aggregate { a with input = prune (reads s exprs) } )
  | Sort { input; keys } ->
    let s, prune = pruner env input in
    ( s,
      fun need ->
        Sort { input = prune (union need (reads s (List.map fst keys))); keys } )
  | Limit (input, n) ->
    let s, prune = pruner env input in
    (s, fun need -> Limit (prune need, n))
  | Distinct input ->
    let s, prune = pruner env input in
    (s, fun _ -> Distinct (prune None))
  | Cross (a, b) ->
    let sa, prune_a = pruner env a and sb, prune_b = pruner env b in
    (Schema.append sa sb, fun _ -> Cross (prune_a None, prune_b None))
  | Left_outer_join j ->
    let ls, prune_l = pruner env j.left and rs, prune_r = pruner env j.right in
    ( Schema.append ls rs,
      fun _ ->
        Left_outer_join { j with left = prune_l None; right = prune_r None } )
  | Hash_join j ->
    let ls, prune_l = pruner env j.left and rs, prune_r = pruner env j.right in
    let out = Schema.append ls rs in
    ( out,
      fun need ->
        Hash_join
          {
            j with
            left = prune_l (side need ~ofs:0 ls j.left_keys);
            right =
              prune_r (side need ~ofs:(Schema.arity ls) rs j.right_keys);
            keep = kept need out;
          } )
  | Index_join j ->
    let ls, prune_l = pruner env j.left in
    let out = Schema.append ls (table_schema j.table j.alias) in
    ( out,
      fun need ->
        Index_join
          {
            j with
            left = prune_l (side need ~ofs:0 ls j.left_keys);
            keep = kept need out;
          } )

let prune_columns env plan = (snd (pruner env plan)) None

let plan_query config env (q : Sql.Ast.query) : Plan.t =
  let stats_of table =
    Telemetry.Metrics.inc m_stats_lookups;
    env.stats_of table
  in
  (* bindings *)
  let bindings =
    List.map
      (fun ({ table; t_alias } : Sql.Ast.table_ref) ->
        let alias = Option.value ~default:table t_alias in
        match env.schema_of table with
        | None -> plan_errorf "unknown table %s" table
        | Some bare -> { alias; table; bare; stats = stats_of table })
      q.from
  in
  (match bindings with [] -> plan_errorf "empty FROM clause" | _ -> ());
  let outer_bindings =
    List.map
      (fun ({ oj_table = { table; t_alias }; oj_on } : Sql.Ast.outer_join) ->
        let alias = Option.value ~default:table t_alias in
        match env.schema_of table with
        | None -> plan_errorf "unknown table %s" table
        | Some bare -> ({ alias; table; bare; stats = stats_of table }, oj_on))
      q.outer_joins
  in
  let aliases =
    List.map (fun b -> b.alias) (bindings @ List.map fst outer_bindings)
  in
  if List.length (List.sort_uniq String.compare aliases) <> List.length aliases
  then plan_errorf "duplicate table alias in FROM";
  let aliases = List.map (fun b -> b.alias) bindings in
  let { local; edges; residual } = classify bindings q.where in
  let local, residual =
    if config.pushdown then (local, residual)
    else
      ( List.map (fun (a, _) -> (a, [])) local,
        List.concat_map snd local @ residual )
  in
  (* base inputs *)
  let base_input b =
    let scan = Plan.Scan { table = b.table; alias = b.alias } in
    match List.assoc b.alias local with
    | [] -> scan
    | preds ->
      Plan.Filter { input = scan; pred = Option.get (Sql.Ast.conj preds) }
  in
  let estimates =
    List.map (fun b -> (b.alias, base_estimate b (List.assoc b.alias local))) bindings
  in
  let binding_of alias = List.find (fun b -> b.alias = alias) bindings in
  (* greedy join ordering *)
  let joined = Hashtbl.create 8 in
  let residual_pending = ref residual in
  let apply_ready_residuals plan =
    let in_set e =
      List.for_all (fun a -> Hashtbl.mem joined a) (aliases_of_expr bindings e)
    in
    let ready, pending = List.partition in_set !residual_pending in
    residual_pending := pending;
    match Sql.Ast.conj ready with
    | None -> plan
    | Some pred -> Plan.Filter { input = plan; pred }
  in
  (* A table whose join-key column carries a persistent index is best
     probed as the inner side of an index join; avoid starting the
     greedy order there when possible (the paper's setup indexes the
     identifier attributes and probes them from the fk side). *)
  let is_index_target alias =
    config.use_indexes
    && List.exists
         (fun (a, ea, b, eb) ->
           let check al key =
             al = alias
             &&
             match (key : Sql.Ast.expr) with
             | Col c -> env.has_index (binding_of alias).table c.name
             | _ -> false
           in
           check a ea || check b eb)
         edges
  in
  let smallest candidates =
    List.fold_left
      (fun best (alias, est) ->
        match best with
        | None -> Some (alias, est)
        | Some (_, e) when est < e -> Some (alias, est)
        | Some _ -> best)
      None candidates
  in
  let start =
    match smallest (List.filter (fun (a, _) -> not (is_index_target a)) estimates) with
    | Some x -> Some x
    | None -> smallest estimates
  in
  let start_alias, start_est =
    match start with Some x -> x | None -> assert false
  in
  Hashtbl.replace joined start_alias ();
  let current = ref (apply_ready_residuals (base_input (binding_of start_alias))) in
  let current_est = ref start_est in
  let remaining = ref (List.filter (fun a -> a <> start_alias) aliases) in
  let edges_between target =
    (* edges connecting the joined set to [target]; returns
       (left_key over joined set, right_key over target) pairs *)
    List.filter_map
      (fun (a, ea, b, eb) ->
        if Hashtbl.mem joined a && b = target then Some (ea, eb)
        else if Hashtbl.mem joined b && a = target then Some (eb, ea)
        else None)
      edges
  in
  while !remaining <> [] do
    let connected =
      List.filter (fun a -> edges_between a <> []) !remaining
    in
    let candidates = if connected <> [] then connected else !remaining in
    Telemetry.Metrics.inc ~n:(List.length candidates) m_join_candidates;
    let next =
      List.fold_left
        (fun best alias ->
          let est = List.assoc alias estimates in
          match best with
          | None -> Some (alias, est)
          | Some (_, e) when est < e -> Some (alias, est)
          | Some _ -> best)
        None candidates
    in
    let next_alias, next_est = Option.get next in
    let b = binding_of next_alias in
    let pairs = edges_between next_alias in
    let node =
      if pairs = [] then Plan.Cross (!current, base_input b)
      else begin
        let left_keys = List.map fst pairs and right_keys = List.map snd pairs in
        (* index join applies when the inner side is a bare scan and
           some right key is a plain indexed column; reorder keys to
           put it first *)
        let right_is_bare = List.assoc next_alias local = [] in
        let indexed_first =
          if not (config.use_indexes && right_is_bare) then None
          else
            List.find_opt
              (fun (_, rk) ->
                match (rk : Sql.Ast.expr) with
                | Col c -> env.has_index b.table c.name
                | _ -> false)
              pairs
        in
        match indexed_first with
        | Some ((_, Col _) as first)
          when List.for_all
                 (fun (_, rk) ->
                   match (rk : Sql.Ast.expr) with Col _ -> true | _ -> false)
                 pairs ->
          let rest = List.filter (fun p -> p != first) pairs in
          let ordered = first :: rest in
          let right_attrs =
            List.map
              (fun (_, rk) ->
                match (rk : Sql.Ast.expr) with
                | Col c -> c.name
                | _ -> assert false)
              ordered
          in
          Plan.Index_join
            {
              left = !current;
              table = b.table;
              alias = b.alias;
              left_keys = List.map fst ordered;
              right_attrs;
              keep = None;
            }
        | _ ->
          Plan.Hash_join
            {
              left = !current;
              right = base_input b;
              left_keys;
              right_keys;
              keep = None;
            }
      end
    in
    Hashtbl.replace joined next_alias ();
    let key_selectivity =
      List.fold_left
        (fun acc (_, rk) -> acc /. join_key_distinct b rk)
        1.0 pairs
    in
    current_est := !current_est *. next_est *. key_selectivity;
    current := apply_ready_residuals node;
    remaining := List.filter (fun a -> a <> next_alias) !remaining
  done;
  (match !residual_pending with
  | [] -> ()
  | pending ->
    current :=
      Plan.Filter { input = !current; pred = Option.get (Sql.Ast.conj pending) });
  (* LEFT OUTER JOINs apply after the inner block, in syntactic order *)
  List.iter
    (fun (b, on) ->
      current :=
        Plan.Left_outer_join
          { left = !current; right = Plan.Scan { table = b.table; alias = b.alias }; on })
    outer_bindings;
  (* projection / aggregation *)
  let joined_schema =
    List.fold_left
      (fun acc b -> Schema.append acc (Schema.rename ~prefix:b.alias b.bare))
      (Schema.make [])
      (bindings @ List.map fst outer_bindings)
  in
  let items =
    match q.select with
    | Items items -> derive_output_names items
    | Star ->
      List.map
        (fun (a : Schema.attribute) ->
          (Sql.Ast.Col { table = None; name = a.name }, a.name))
        (Schema.attributes joined_schema)
  in
  let needs_aggregate =
    q.group_by <> [] || q.having <> None
    || List.exists (fun (e, _) -> Sql.Ast.has_aggregates e) items
  in
  let projected =
    if needs_aggregate then
      Plan.Aggregate
        { input = !current; group_by = q.group_by; items; having = q.having }
    else Plan.Project { input = !current; items }
  in
  let projected = if q.distinct then Plan.Distinct projected else projected in
  (* ORDER BY *)
  let with_sort =
    if q.order_by = [] then projected
    else begin
      let out_schema =
        Schema.make (List.map (fun (_, n) -> (n, Value.TString)) items)
      in
      (* an ORDER BY key that repeats a select item's expression sorts
         on that output column (SQL's GROUP BY ... ORDER BY idiom) *)
      let as_output_column e =
        match
          List.find_opt (fun (ie, _) -> Sql.Ast.equal_expr ie e) items
        with
        | Some (_, name) -> Sql.Ast.Col { table = None; name }
        | None -> e
      in
      let keys_out =
        List.map
          (fun (o : Sql.Ast.order_item) -> (as_output_column o.o_expr, o.desc))
          q.order_by
      in
      let keys_in =
        List.map (fun (o : Sql.Ast.order_item) -> (o.o_expr, o.desc)) q.order_by
      in
      if List.for_all (fun (e, _) -> resolves_against out_schema e) keys_out then
        Plan.Sort { input = projected; keys = keys_out }
      else if
        (not needs_aggregate)
        && List.for_all (fun (e, _) -> resolves_against joined_schema e) keys_in
      then begin
        (* sort below the projection, over base columns *)
        match projected with
        | Plan.Project { input; items } ->
          Plan.Project { input = Plan.Sort { input; keys = keys_in }; items }
        | Plan.Distinct (Plan.Project { input; items }) ->
          Plan.Distinct
            (Plan.Project { input = Plan.Sort { input; keys = keys_in }; items })
        | _ -> plan_errorf "unsupported ORDER BY"
      end
      else
        plan_errorf
          "ORDER BY keys must all resolve against the output columns or all \
           against the input columns"
    end
  in
  let final =
    match q.limit with None -> with_sort | Some n -> Plan.Limit (with_sort, n)
  in
  let final = prune_columns env final in
  Log.debug (fun m -> m "plan:@\n%a" Plan.pp final);
  final

let plan ?(config = default_config) env q =
  Telemetry.Metrics.inc m_plans;
  Telemetry.Span.with_ ~name:"planner.plan" (fun () -> plan_query config env q)
