open Dirty

type entry = {
  relation : Relation.t;
  mutable indexes : (string * Index.t) list;  (* attr -> index *)
  mutable stats : Stats.t option;
}

type t = (string, entry) Hashtbl.t

let h_query_seconds =
  Telemetry.Metrics.histogram "engine.query_seconds"
    ~help:"end-to-end wall-clock of plan+execute per query"

let m_queries =
  Telemetry.Metrics.counter "engine.queries" ~help:"queries executed"

let create () : t = Hashtbl.create 16

let add_relation t ~name rel =
  Hashtbl.replace t name { relation = rel; indexes = []; stats = None }

let entry t name =
  match Hashtbl.find_opt t name with
  | Some e -> e
  | None -> raise Not_found

let relation t name = (entry t name).relation
let table_names t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])

(* [prev]'s entry for [table], when there is one to build from.  A
   catalog built from [prev] copies what it reuses into its own entry
   records and never writes to [prev]'s, so a reader still holding
   [prev] sees it unchanged. *)
let prev_entry prev table = Option.bind prev (fun p -> Hashtbl.find_opt p table)

(* An index maps a key to row positions, so it carries over when the
   key column's cells are physically unchanged row for row. *)
let create_index ?prev t ~table ~attr =
  let e = entry t table in
  let attr = String.lowercase_ascii attr in
  let carried =
    match prev_entry prev table with
    | Some pe when Relation.shares_column pe.relation e.relation attr ->
      List.assoc_opt attr pe.indexes
    | _ -> None
  in
  let index =
    match carried with Some index -> index | None -> Index.build e.relation attr
  in
  e.indexes <- (attr, index) :: List.remove_assoc attr e.indexes

let index t ~table ~attr =
  match Hashtbl.find_opt t table with
  | None -> None
  | Some e -> List.assoc_opt (String.lowercase_ascii attr) e.indexes

let has_index t ~table ~attr = index t ~table ~attr <> None

let analyze ?prev t name =
  let e = entry t name in
  let prev =
    match prev_entry prev name with
    | Some { relation; stats = Some stats; _ } -> Some (relation, stats)
    | _ -> None
  in
  Telemetry.Span.with_ ~name:"engine.analyze" ~attrs:[ ("table", name) ]
    (fun () -> e.stats <- Some (Stats.analyze ?prev e.relation))

let analyze_all t = List.iter (analyze t) (table_names t)
let stats t name = Option.bind (Hashtbl.find_opt t name) (fun e -> e.stats)

type reuse = { tables_reused : int; columns_analyzed : int }

let reuse ?prev t =
  Hashtbl.fold
    (fun name e acc ->
      let pe = prev_entry prev name in
      let shared = match pe with Some pe -> pe.relation == e.relation | None -> false in
      let carried (n, cs) =
        match Option.bind pe (fun pe -> Option.bind pe.stats (fun s -> Stats.column s n)) with
        | Some pcs -> pcs == cs
        | None -> false
      in
      let analyzed =
        match e.stats with
        | Some s -> List.length (List.filter (fun c -> not (carried c)) s.Stats.columns)
        | None -> 0
      in
      {
        tables_reused = acc.tables_reused + Bool.to_int shared;
        columns_analyzed = acc.columns_analyzed + analyzed;
      })
    t { tables_reused = 0; columns_analyzed = 0 }

let planner_env t : Planner.env =
  {
    schema_of =
      (fun name ->
        Option.map (fun e -> Relation.schema e.relation) (Hashtbl.find_opt t name));
    stats_of = (fun name -> stats t name);
    has_index = (fun table attr -> has_index t ~table ~attr);
  }

let exec_catalog t : Exec.catalog =
  {
    relation = (fun name -> relation t name);
    index = (fun table attr -> index t ~table ~attr);
  }

let plan ?config t q = Planner.plan ?config (planner_env t) q

let spill_of_config (config : Planner.config option) =
  match config with
  | Some { spill_rows = Some rows; spill_dir; _ } ->
    Some
      {
        Exec.spill_rows = rows;
        spill_dir =
          (match spill_dir with
          | Some dir -> dir
          | None -> Filename.get_temp_dir_name ());
      }
  | _ -> None

let run_plan ?budget ?jobs ?chunked:_ ?spill t p =
  Exec.run ?budget ?jobs ?spill (exec_catalog t) p

(* the parallelism the caller asked for: an explicit config pins it
   (so jobs=1 vs jobs=4 comparisons are environment-independent);
   otherwise the process default (CLI --jobs / CONQUER_JOBS) applies *)
let effective_jobs (config : Planner.config option) =
  match config with Some c -> c.jobs | None -> Parallel.default_jobs ()

(* The budget declared by the planner config, if any; a time-limited
   budget gets a cancellation token so the wall-clock watchdog can
   interrupt parallel regions mid-operator.  An externally supplied
   token (the server's per-request token, tripped on client
   disconnect) is attached to the budget whatever the limits — and
   forces a budget into existence even for a limitless config, so the
   execution polls it at every checkpoint. *)
let budget_of_config ?cancel mode (config : Planner.config option) =
  let limits =
    match config with
    | Some { max_rows; max_elapsed; _ } -> { Budget.max_rows; max_elapsed }
    | None -> Budget.no_limits
  in
  if limits = Budget.no_limits && cancel = None then None
  else
    let cancel =
      match cancel with
      | Some _ as c -> c
      | None ->
        if limits.Budget.max_elapsed <> None then Some (Cancel.create ())
        else None
    in
    Some (Budget.create ~mode ?cancel limits)

(* run [f] under the wall-clock watchdog when the budget carries a
   time limit: the watchdog trips the budget's token at the deadline,
   so execution stops at the next checkpoint (budget charge, operator
   boundary, or parallel chunk claim) rather than only when a row
   charge happens to consult the clock *)
let guarded budget f =
  match budget with
  | None -> f ()
  | Some b -> (
    match (Budget.cancel_token b, (Budget.limits b).Budget.max_elapsed) with
    | Some tok, Some seconds -> Cancel.with_deadline ~seconds tok f
    | _ -> f ())

(* Every query entry point runs under one [engine.query] span, so a
   request-scoped trace (the daemon's) sees planning and per-operator
   execution as a single attributable subtree rather than a loose
   collection of roots. *)
let timed_query f =
  Telemetry.Metrics.inc m_queries;
  if not (Telemetry.Control.enabled ()) then f ()
  else
    Telemetry.Span.with_ ~name:"engine.query" (fun () ->
        let t0 = Unix.gettimeofday () in
        let result = f () in
        Telemetry.Metrics.observe h_query_seconds (Unix.gettimeofday () -. t0);
        result)

let query_ast ?config t q =
  timed_query (fun () ->
      let budget = budget_of_config Budget.Raise config in
      guarded budget (fun () ->
          run_plan ?budget ~jobs:(effective_jobs config)
            ?spill:(spill_of_config config) t (plan ?config t q)))

type stop = { truncated : bool; cancelled : bool }

let no_stop = { truncated = false; cancelled = false }

let query_ast_within ?config ?cancel t q =
  timed_query (fun () ->
      let budget = budget_of_config ?cancel Budget.Truncate config in
      let rel =
        guarded budget (fun () ->
            run_plan ?budget ~jobs:(effective_jobs config)
              ?spill:(spill_of_config config) t (plan ?config t q))
      in
      let stop =
        match budget with
        | Some b ->
          { truncated = Budget.truncated b; cancelled = Budget.cancelled b }
        | None -> no_stop
      in
      Telemetry.Span.add_attr "rows" (string_of_int (Relation.cardinality rel));
      if stop.truncated then Telemetry.Span.add_attr "truncated" "true";
      if stop.cancelled then Telemetry.Span.add_attr "cancelled" "true";
      (rel, stop))

let query ?config t text = query_ast ?config t (Sql.Parser.parse_query text)

let explain ?config t text =
  Plan.to_string (plan ?config t (Sql.Parser.parse_query text))

let query_profiled ?config t text =
  let p = plan ?config t (Sql.Parser.parse_query text) in
  let budget = budget_of_config Budget.Raise config in
  guarded budget (fun () ->
      Exec.run_profiled ?budget ~jobs:(effective_jobs config)
        ?spill:(spill_of_config config) (exec_catalog t) p)

let explain_analyze ?config t text =
  let _, profile = query_profiled ?config t text in
  Format.asprintf "%a" Exec.pp_profile profile
