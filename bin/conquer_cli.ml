(* The conquer command-line tool.

   Subcommands:
     query      run a query over dirty CSV tables and print clean answers
     profile    run a query with telemetry on and print the span tree
     validate   report structured integrity diagnostics (optionally repair)
     rewrite    print RewriteClean(q) or the rewritability violations
     why        per-answer provenance: which duplicates contribute how much
     expected   expected aggregates (SUM/COUNT/AVG as expectations)
     dist       exact distribution of a qualifying-entity count
     sample     Monte-Carlo clean answers for non-rewritable queries
     match      cluster duplicate records (sorted-neighborhood)
     assign     compute tuple probabilities for a clustered CSV (Figure 5)
     generate   emit a dirty TPC-H-style database as CSV files
     update     apply a delta batch to a saved database and commit it
     recover    sweep crash debris from a saved database directory
     serve      run the overload-resilient query daemon
     trace      inspect a running daemon: traces and the query log
     demo       walk through the paper's running example

   Exit codes: 0 success; 2 the database has Error-severity validation
   diagnostics (or a repair failed); 3 an execution budget was
   exceeded or the query was cancelled; 4 an I/O or recovery failure
   (corrupt store, exhausted retries); 1 other errors.

   '--verbose' anywhere turns on debug logging (plans, rewritten SQL).
   '--trace FILE' anywhere enables telemetry and appends every completed
   root span as a JSON line to FILE; '--metrics FILE' enables telemetry
   and writes a Prometheus-style metrics snapshot to FILE at exit.
   '--jobs N' anywhere sets the domains probability assignment spreads
   its per-cluster work over (same results, defaults to CONQUER_JOBS or
   1); queries always run serially.
   '--retries N' / '--io-backoff-ms N' anywhere tune the retry policy
   for transient I/O failures when saving or loading a database. *)

module Value = Dirty.Value
module Relation = Dirty.Relation
module Schema = Dirty.Schema
module Dirty_db = Dirty.Dirty_db
module Csv = Dirty.Csv

open Cmdliner

(* ---- table specifications: name=path[:id=ATTR][:prob=ATTR] ---- *)

type table_arg = {
  t_name : string;
  path : string;
  id : string;
  prob : string option;  (* absent: assign probabilities on load *)
}

let parse_table_arg s =
  match String.split_on_char '=' s with
  | t_name :: rest when rest <> [] ->
    let rest = String.concat "=" rest in
    let segments = String.split_on_char ':' rest in
    (match segments with
    | path :: options ->
      let id = ref "id" and prob = ref None in
      let ok =
        List.for_all
          (fun opt ->
            match String.index_opt opt '=' with
            | Some i ->
              let key = String.sub opt 0 i
              and v = String.sub opt (i + 1) (String.length opt - i - 1) in
              (match key with
              | "id" ->
                id := v;
                true
              | "prob" ->
                prob := Some v;
                true
              | _ -> false)
            | None -> false)
          options
      in
      if ok then Ok { t_name; path; id = !id; prob = !prob }
      else Error (`Msg (Printf.sprintf "bad table option in %S" s))
    | [] -> Error (`Msg (Printf.sprintf "bad table spec %S" s)))
  | _ ->
    Error
      (`Msg
        (Printf.sprintf
           "bad table spec %S (expected name=path.csv[:id=attr][:prob=attr])" s))

let table_conv =
  Arg.conv
    ( parse_table_arg,
      fun fmt t -> Format.fprintf fmt "%s=%s:id=%s" t.t_name t.path t.id )

let load_table ?(validate = true) (t : table_arg) =
  let rel = Csv.load_file t.path in
  match t.prob with
  | Some prob_attr ->
    Dirty_db.make_table ~validate ~name:t.t_name ~id_attr:t.id ~prob_attr rel
  | None ->
    (* append a prob column and compute it from the clustering *)
    let schema = Relation.schema rel in
    let schema' = Schema.append schema (Schema.make [ ("prob", Value.TFloat) ]) in
    let rel' =
      Relation.map_rows schema'
        (fun row -> Array.append row [| Value.Float 1.0 |])
        rel
    in
    let table =
      Dirty_db.make_table ~validate:false ~name:t.t_name ~id_attr:t.id
        ~prob_attr:"prob" rel'
    in
    let attrs =
      List.filter
        (fun n -> n <> t.id && n <> "prob")
        (Schema.names schema')
    in
    Prob.Assign.annotate_table ~attrs table

let load_db ?validate tables =
  List.fold_left
    (fun db t -> Dirty_db.add_table db (load_table ?validate t))
    Dirty_db.empty tables

let tables_arg =
  let doc =
    "Dirty table as NAME=PATH.csv[:id=ATTR][:prob=ATTR]. The id attribute \
     (default 'id') holds the cluster identifier. Without a prob attribute, \
     probabilities are computed from the clustering (Figure 5 of the paper)."
  in
  Arg.(value & opt_all table_conv [] & info [ "t"; "table" ] ~docv:"TABLE" ~doc)

let dir_arg =
  let doc =
    "Load a dirty database saved as a directory (manifest.csv plus one CSV \
     per table, as written by 'conquer generate --save-db' or \
     Dirty.Store.save)."
  in
  Arg.(value & opt (some dir) None & info [ "d"; "dir" ] ~docv:"DIR" ~doc)

let load_store ?validate ~lenient d =
  let db, warnings = Dirty.Store.load_verbose ?validate ~lenient d in
  List.iter (fun w -> Printf.eprintf "warning: %s\n%!" w) warnings;
  db

let resolve_db ?validate ?(lenient = false) tables dir =
  match tables, dir with
  | [], None ->
    prerr_endline "specify dirty tables with --table or a database with --dir";
    exit 1
  | [], Some d -> load_store ?validate ~lenient d
  | ts, None -> load_db ?validate ts
  | ts, Some d ->
    List.fold_left (fun db t -> Dirty_db.add_table db (load_table ?validate t))
      (load_store ?validate ~lenient d) ts

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query.")

let lenient_arg =
  let doc =
    "With --dir: skip corrupt or invalid tables (reported as warnings on \
     stderr) instead of aborting the load."
  in
  Arg.(value & flag & info [ "lenient" ] ~doc)

let policy_conv =
  Arg.conv
    ( (fun s ->
        match Dirty.Repair.policy_of_string s with
        | Some p -> Ok p
        | None ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown repair policy %S (expected renormalize, clamp, \
                  uniform, drop or fail)"
                 s))),
      fun fmt p ->
        Format.pp_print_string fmt (Dirty.Repair.policy_to_string p) )

let repair_arg =
  let doc =
    "Repair invalid clusters before answering, under POLICY: 'renormalize' \
     (rescale to sum 1), 'clamp' (clamp into [0,1], then renormalize), \
     'uniform' (1/n each), 'drop' (delete the cluster), or 'fail' (abort on \
     the first problem). Applied actions are reported on stderr."
  in
  Arg.(
    value & opt (some policy_conv) None
    & info [ "repair" ] ~docv:"POLICY" ~doc)

let budget_rows_arg =
  let doc =
    "Execution budget: abort (exit code 3) once the plan's operators have \
     produced N rows, intermediate results included."
  in
  Arg.(value & opt (some int) None & info [ "budget-rows" ] ~docv:"N" ~doc)

let budget_time_arg =
  let doc =
    "Execution budget: abort (exit code 3) after SECONDS of wall-clock \
     execution."
  in
  Arg.(
    value & opt (some float) None & info [ "budget-time" ] ~docv:"SECONDS" ~doc)

let partial_arg =
  let doc =
    "With a budget: degrade gracefully instead of aborting — print the \
     partial answers produced within the budget, flagged as truncated."
  in
  Arg.(value & flag & info [ "partial" ] ~doc)

let budget_config budget_rows budget_time =
  if budget_rows = None && budget_time = None then None
  else
    Some
      {
        Engine.Planner.default_config with
        max_rows = budget_rows;
        max_elapsed = budget_time;
      }

(* validate, and either report-and-exit or repair *)
let validate_or_repair ?(quiet_warnings = false) repair db =
  match repair with
  | Some policy ->
    let db, actions = Dirty.Repair.repair_db ~policy db in
    List.iter
      (fun a -> Printf.eprintf "repaired: %s\n" (Dirty.Repair.action_to_string a))
      actions;
    db
  | None ->
    let diags = Dirty.Validate.db_diagnostics db in
    List.iter
      (fun d ->
        if (not quiet_warnings) || Dirty.Validate.severity d = Dirty.Validate.Error
        then prerr_endline (Dirty.Validate.to_string d))
      diags;
    if not (Dirty.Validate.is_clean diags) then begin
      Printf.eprintf
        "%d validation error(s); re-run with --repair POLICY to fix them\n"
        (List.length (Dirty.Validate.errors diags));
      exit 2
    end;
    db

let handling_failures f =
  try f () with
  | Sys_error msg ->
    prerr_endline msg;
    exit 1
  | Invalid_argument msg | Failure msg ->
    Printf.eprintf "invalid input: %s\n" msg;
    exit 1
  | Sql.Parser.Error msg ->
    Printf.eprintf "SQL parse error: %s\n" msg;
    exit 1
  | Engine.Planner.Plan_error msg ->
    Printf.eprintf "planning error: %s\n" msg;
    exit 1
  | Engine.Exec.Exec_error msg ->
    Printf.eprintf "execution error: %s\n" msg;
    exit 1
  | Conquer.Rewrite.Not_rewritable vs ->
    prerr_endline "query is not in the rewritable class (Dfn 7):";
    List.iter
      (fun v -> prerr_endline ("  - " ^ Conquer.Rewritable.violation_to_string v))
      vs;
    exit 1
  | Dirty.Repair.Repair_failed d ->
    Printf.eprintf "repair failed: %s\n" (Dirty.Validate.to_string d);
    exit 2
  | Dirty_db.Invalid msg ->
    Printf.eprintf "invalid dirty database: %s\n" msg;
    exit 2
  | Engine.Budget.Exceeded { produced; elapsed; limits } ->
    prerr_endline (Engine.Budget.exceeded_message ~produced ~elapsed limits);
    prerr_endline "re-run with --partial for the answers produced in budget";
    exit 3
  | Engine.Cancel.Cancelled reason ->
    Printf.eprintf "query cancelled: %s\n" reason;
    prerr_endline "re-run with --partial for the answers produced in budget";
    exit 3
  | Dirty.Csv.Parse_error { path; line; msg } ->
    Printf.eprintf "parse error: %s:%d: %s\n" path line msg;
    exit 1
  | Tpch.Tbl.Parse_error { path; lineno; msg } ->
    Printf.eprintf "parse error: %s:%d: %s\n" path lineno msg;
    exit 1
  | Dirty.Store.Corrupt { dir; detail } ->
    Printf.eprintf "corrupt database directory %s: %s\n" dir detail;
    prerr_endline "run 'conquer recover DIR' to sweep debris, or --lenient to skip bad tables";
    exit 4
  | Fault.Io.Io_error { op; path; msg; transient = _ } ->
    Printf.eprintf "I/O error (%s %s): %s\n" (Fault.Io.op_name op) path msg;
    exit 4
  | Fault.Retry.Gave_up { attempts; last } ->
    Printf.eprintf "I/O failed after %d attempt(s): %s\n" attempts
      (Printexc.to_string last);
    exit 4

(* ---- query ---- *)

type mode = Rewritten | Original | Oracle | Consistent

let mode_conv =
  Arg.enum
    [
      ("rewritten", Rewritten); ("original", Original); ("oracle", Oracle);
      ("consistent", Consistent);
    ]

let query_cmd =
  let run tables dir sql mode explain max_rows lenient repair budget_rows
      budget_time partial =
    handling_failures @@ fun () ->
    let db = resolve_db ~validate:false ~lenient tables dir in
    let db = validate_or_repair ~quiet_warnings:true repair db in
    let config = budget_config budget_rows budget_time in
    let session = Conquer.Clean.create db in
    if explain then
      print_endline (Engine.Database.explain (Conquer.Clean.engine session) sql);
    let complete rel = (rel, (false, false)) in
    let result, (truncated, cancelled) =
      match mode with
      | Rewritten when partial ->
        let { Conquer.Clean.rows; truncated; cancelled } =
          Conquer.Clean.answers_within ?config session sql
        in
        (rows, (truncated, cancelled))
      | Rewritten -> complete (Conquer.Clean.answers ?config session sql)
      | Original -> complete (Conquer.Clean.original ?config session sql)
      | Oracle -> complete (Conquer.Clean.answers_oracle session sql)
      | Consistent -> complete (Conquer.Clean.consistent_answers ?config session sql)
    in
    print_string (Relation.to_string ~max_rows result);
    Printf.printf "(%d rows%s)\n"
      (Relation.cardinality result)
      (if truncated then ", truncated by execution budget"
       else if cancelled then ", cancelled by time budget"
       else "")
  in
  let mode =
    Arg.(
      value & opt mode_conv Rewritten
      & info [ "m"; "mode" ] ~docv:"MODE"
          ~doc:
            "One of 'rewritten' (clean answers via RewriteClean), 'original' \
             (the query as-is on the dirty data), 'oracle' (possible-worlds \
             enumeration; exponential), or 'consistent' (probability-1 \
             answers).")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print the execution plan.")
  in
  let max_rows =
    Arg.(value & opt int 50 & info [ "max-rows" ] ~doc:"Rows to display.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a query over dirty tables and print clean answers")
    Term.(
      const run $ tables_arg $ dir_arg $ sql_arg $ mode $ explain $ max_rows
      $ lenient_arg $ repair_arg $ budget_rows_arg $ budget_time_arg
      $ partial_arg)

(* ---- profile ---- *)

let profile_cmd =
  let run tables dir sql mode runs format lenient repair =
    handling_failures @@ fun () ->
    (* counting starts before the load, so I/O retries and recoveries
       during store loading show up in the counter section below *)
    Telemetry.Control.enable ();
    let db = resolve_db ~validate:false ~lenient tables dir in
    let db = validate_or_repair ~quiet_warnings:true repair db in
    let session = Conquer.Clean.create db in
    let execute () =
      match mode with
      | Rewritten -> Conquer.Clean.answers session sql
      | Original -> Conquer.Clean.original session sql
      | Oracle -> Conquer.Clean.answers_oracle session sql
      | Consistent -> Conquer.Clean.consistent_answers session sql
    in
    (* one instrumented pass captures the span tree (plan operators,
       rewriting, and the clean-answer aggregation) *)
    let result, spans = Telemetry.Span.collecting (fun () -> execute ()) in
    (* repeated timing runs with telemetry forced off, so the numbers
       are not distorted by the instrumentation itself *)
    let stats =
      Telemetry.Control.with_disabled (fun () ->
          Telemetry.Timing.time_runs ~runs (fun () -> ignore (execute ())))
    in
    let samples = Telemetry.Metrics.snapshot () in
    let histograms =
      List.filter_map
        (fun (s : Telemetry.Metrics.sample) ->
          match s.data with
          | Telemetry.Metrics.Histogram_value h when h.hs_total > 0 ->
            Some
              ( s.name,
                h,
                Telemetry.Metrics.histogram_quantile h 0.5,
                Telemetry.Metrics.histogram_quantile h 0.99 )
          | _ -> None)
        samples
    in
    match format with
    | `Human ->
      Printf.printf "%d answer row(s)\n\nspan tree:\n"
        (Relation.cardinality result);
      List.iter
        (fun s -> print_string (Telemetry.Export.span_to_string s))
        spans;
      (* counters, including the robustness ones (faults injected, I/O
         retries, store recoveries, cancellations) *)
      print_string "\ncounters:\n";
      List.iter
        (fun (s : Telemetry.Metrics.sample) ->
          match s.data with
          | Telemetry.Metrics.Counter_value n ->
            Printf.printf "  %-36s %d\n" s.name n
          | _ -> ())
        samples;
      (* latency distributions, summarized by the same quantile
         estimator the daemon's debug surface uses *)
      print_string "\nhistograms (p50/p99, bucket upper bounds):\n";
      List.iter
        (fun (name, (h : Telemetry.Metrics.histogram_snapshot), p50, p99) ->
          Printf.printf "  %-36s n=%-6d p50=%.3gs p99=%.3gs sum=%.3gs\n" name
            h.hs_total p50 p99 h.hs_sum)
        histograms;
      Printf.printf "\ntiming (telemetry off): %s\n"
        (Telemetry.Timing.to_string stats)
    | `Json ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "{\"rows\":%d,\"spans\":["
           (Relation.cardinality result));
      List.iteri
        (fun i s ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Telemetry.Export.span_to_json s))
        spans;
      Buffer.add_string buf "],\"metrics\":";
      Buffer.add_string buf (Telemetry.Export.metrics_json ());
      Buffer.add_string buf ",\"quantiles\":{";
      List.iteri
        (fun i (name, _, p50, p99) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "%s:{\"p50\":%s,\"p99\":%s}"
               (Telemetry.Export.json_string name)
               (Telemetry.Export.json_float p50)
               (Telemetry.Export.json_float p99)))
        histograms;
      Buffer.add_string buf
        (Printf.sprintf
           "},\"timing_ms\":{\"runs\":%d,\"min\":%s,\"median\":%s,\"max\":%s}}"
           stats.Telemetry.Timing.runs
           (Telemetry.Export.json_float (stats.Telemetry.Timing.min *. 1000.0))
           (Telemetry.Export.json_float
              (stats.Telemetry.Timing.median *. 1000.0))
           (Telemetry.Export.json_float (stats.Telemetry.Timing.max *. 1000.0)));
      print_endline (Buffer.contents buf)
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: 'human' (the span tree and counter sections) or \
             'json' (one machine-readable object with spans, metrics, \
             histogram quantiles, and timings).")
  in
  let mode =
    Arg.(
      value & opt mode_conv Rewritten
      & info [ "m"; "mode" ] ~docv:"MODE"
          ~doc:
            "One of 'rewritten' (default), 'original', 'oracle' or \
             'consistent' — same semantics as 'query'.")
  in
  let runs =
    Arg.(
      value & opt int 5
      & info [ "runs" ] ~docv:"N"
          ~doc:"Timed executions after one warmup (reported as min/median/max).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a query with telemetry enabled: print the tracing-span tree \
          (per-operator rows, wall-clock, allocation), histogram p50/p99 \
          quantiles, and min/median/max timings — or the same as one JSON \
          object with --format json. Combine with --metrics FILE for a \
          Prometheus-style counter snapshot.")
    Term.(
      const run $ tables_arg $ dir_arg $ sql_arg $ mode $ runs $ format
      $ lenient_arg $ repair_arg)

(* ---- validate ---- *)

let validate_cmd =
  let run tables dir lenient repair output =
    handling_failures @@ fun () ->
    let db = resolve_db ~validate:false ~lenient tables dir in
    let diags = Dirty.Validate.db_diagnostics db in
    List.iter (fun d -> print_endline (Dirty.Validate.to_string d)) diags;
    let errors = List.length (Dirty.Validate.errors diags) in
    let warnings = List.length diags - errors in
    Printf.printf "%d error(s), %d warning(s)\n" errors warnings;
    match repair with
    | None -> if errors > 0 then exit 2
    | Some policy ->
      let repaired, actions = Dirty.Repair.repair_db ~policy db in
      List.iter
        (fun a ->
          Printf.printf "repaired: %s\n" (Dirty.Repair.action_to_string a))
        actions;
      let after = Dirty.Validate.errors (Dirty.Validate.db_diagnostics repaired) in
      Printf.printf "after repair: %d error(s)\n" (List.length after);
      (match output with
      | Some outdir ->
        Dirty.Store.save outdir repaired;
        Printf.printf "repaired database written to %s\n" outdir
      | None -> ());
      if after <> [] then exit 2
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR"
          ~doc:"With --repair: save the repaired database to this directory.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Report every integrity problem of a dirty database (cluster sums, \
          bad probabilities, duplicates, empty clusters) as structured \
          diagnostics; optionally repair them. Exits 2 when Error-severity \
          diagnostics remain.")
    Term.(
      const run $ tables_arg $ dir_arg $ lenient_arg $ repair_arg $ output)

(* ---- rewrite ---- *)

let rewrite_cmd =
  let run tables dir sql =
    let db = resolve_db tables dir in
    let session = Conquer.Clean.create ~index_identifiers:false db in
    match Conquer.Clean.rewrite session sql with
    | Ok text -> print_endline text
    | Error violations ->
      prerr_endline "query is not in the rewritable class (Dfn 7):";
      List.iter
        (fun v ->
          prerr_endline ("  - " ^ Conquer.Rewritable.violation_to_string v))
        violations;
      exit 1
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:"Print RewriteClean(q), or the reasons the query is not rewritable")
    Term.(const run $ tables_arg $ dir_arg $ sql_arg)

(* ---- provenance ---- *)

let why_cmd =
  let run tables dir sql limit =
    let db = resolve_db tables dir in
    let session = Conquer.Clean.create db in
    match Conquer.Provenance.explain session sql with
    | explanations ->
      List.iteri
        (fun i e ->
          if i < limit then
            Format.printf "%a" Conquer.Provenance.pp_explanation e)
        explanations;
      if List.length explanations > limit then
        Printf.printf "... (%d answers total)\n" (List.length explanations)
    | exception Conquer.Rewrite.Not_rewritable vs ->
      prerr_endline "query is not in the rewritable class (Dfn 7):";
      List.iter
        (fun v -> prerr_endline ("  - " ^ Conquer.Rewritable.violation_to_string v))
        vs;
      exit 1
  in
  let limit =
    Arg.(value & opt int 20 & info [ "limit" ] ~doc:"Answers to explain.")
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Explain clean answers: which combinations of duplicates \
          contribute how much probability")
    Term.(const run $ tables_arg $ dir_arg $ sql_arg $ limit)

(* ---- expected aggregates ---- *)

let expected_cmd =
  let run tables dir sql =
    let db = resolve_db tables dir in
    let session = Conquer.Clean.create db in
    match Conquer.Expected.answers session sql with
    | result ->
      print_string (Relation.to_string result);
      Printf.printf "(%d rows)\n" (Relation.cardinality result)
    | exception Conquer.Expected.Not_supported vs ->
      prerr_endline "query outside the expected-aggregate class:";
      List.iter
        (fun v -> prerr_endline ("  - " ^ Conquer.Expected.violation_to_string v))
        vs;
      exit 1
  in
  Cmd.v
    (Cmd.info "expected"
       ~doc:
         "Expected aggregates over dirty data (SUM/COUNT/AVG rewritten to \
          expectations)")
    Term.(const run $ tables_arg $ dir_arg $ sql_arg)

(* ---- sampling ---- *)

let sample_cmd =
  let run tables dir sql samples seed =
    let db = resolve_db tables dir in
    let session = Conquer.Clean.create db in
    let result = Conquer.Sampler.answers ~seed ~samples session sql in
    print_string (Relation.to_string result);
    Printf.printf "(%d answers from %d sampled candidate databases)\n"
      (Relation.cardinality result) samples
  in
  let samples =
    Arg.(value & opt int 1000 & info [ "n"; "samples" ] ~doc:"Sample count.")
  in
  let seed = Arg.(value & opt int 0x5eed & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "sample"
       ~doc:
         "Monte-Carlo clean answers (works for queries outside the \
          rewritable class)")
    Term.(const run $ tables_arg $ dir_arg $ sql_arg $ samples $ seed)

(* ---- count distribution ---- *)

let dist_cmd =
  let run tables dir sql =
    let db = resolve_db tables dir in
    let session = Conquer.Clean.create db in
    match Conquer.Distribution.count_distribution session sql with
    | pmf ->
      Printf.printf "%-8s %12s\n" "count" "probability";
      Array.iteri
        (fun k p -> if p > 1e-9 then Printf.printf "%-8d %12.6f\n" k p)
        pmf;
      Printf.printf
        "mean %.4f, variance %.4f, std dev %.4f\n"
        (Conquer.Distribution.mean pmf)
        (Conquer.Distribution.variance pmf)
        (Float.sqrt (Conquer.Distribution.variance pmf))
    | exception Conquer.Distribution.Not_supported vs ->
      prerr_endline "query outside the count-distribution class:";
      List.iter
        (fun v ->
          prerr_endline ("  - " ^ Conquer.Distribution.violation_to_string v))
        vs;
      exit 1
  in
  Cmd.v
    (Cmd.info "dist"
       ~doc:
         "Exact distribution of the number of entities satisfying a \
          single-relation predicate")
    Term.(const run $ tables_arg $ dir_arg $ sql_arg)

(* ---- tuple matching ---- *)

let match_cmd =
  let run input output keys window threshold attrs out_id =
    let rel = Csv.load_file input in
    let all_attrs = Schema.names (Relation.schema rel) in
    let compare_attrs = if attrs = [] then all_attrs else attrs in
    let passes =
      match keys with
      | [] -> [ Matcher.Sorted_neighborhood.pass [ List.hd all_attrs ] ]
      | ks -> List.map (fun k -> Matcher.Sorted_neighborhood.pass [ k ]) ks
    in
    let config =
      { Matcher.Sorted_neighborhood.passes; window; threshold; attrs = compare_attrs }
    in
    let clustering = Matcher.Sorted_neighborhood.run config rel in
    Printf.eprintf "%d records -> %d entities\n%!" (Relation.cardinality rel)
      (Dirty.Cluster.num_clusters clustering);
    let schema' =
      Schema.append (Relation.schema rel)
        (Schema.make [ (out_id, Value.TInt) ])
    in
    let counter = ref (-1) in
    let rel' =
      Relation.map_rows schema'
        (fun row ->
          incr counter;
          Array.append row [| Dirty.Cluster.cluster_of_row clustering !counter |])
        rel
    in
    match output with
    | Some path -> Csv.write_file path rel'
    | None -> print_string (Relation.to_string ~max_rows:max_int rel')
  in
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.csv" ~doc:"Raw CSV.")
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUTPUT.csv" ~doc:"Output path (default: stdout).")
  in
  let keys =
    Arg.(
      value & opt_all string []
      & info [ "k"; "key" ] ~docv:"ATTR"
          ~doc:"Blocking-key attribute (repeatable; one sorted-neighborhood \
                pass per key).")
  in
  let window =
    Arg.(value & opt int 8 & info [ "w"; "window" ] ~doc:"Sliding-window size.")
  in
  let threshold =
    Arg.(
      value & opt float 0.75
      & info [ "threshold" ] ~doc:"Record-similarity merge threshold in [0,1].")
  in
  let attrs =
    Arg.(
      value & opt_all string []
      & info [ "a"; "attr" ] ~docv:"ATTR"
          ~doc:"Attribute compared by the similarity (repeatable; default: all).")
  in
  let out_id =
    Arg.(
      value & opt string "id"
      & info [ "id-attr" ] ~doc:"Name of the appended cluster-identifier column.")
  in
  Cmd.v
    (Cmd.info "match"
       ~doc:"Cluster duplicate records (sorted-neighborhood merge/purge)")
    Term.(
      const run $ input $ output $ keys $ window $ threshold $ attrs $ out_id)

(* ---- assign ---- *)

let assign_cmd =
  let run input output id_attr distance =
    let rel = Csv.load_file input in
    let clustering = Dirty.Cluster.of_relation rel ~id_attr in
    let attrs =
      List.filter (fun n -> n <> id_attr) (Schema.names (Relation.schema rel))
    in
    let dist =
      match distance with
      | "info-loss" -> Prob.Assign.Information_loss
      | "edit" -> Prob.Assign.Edit_distance
      | other ->
        Printf.eprintf "unknown distance %s (info-loss or edit)\n" other;
        exit 1
    in
    let probs = Prob.Assign.assign ~distance:dist ~attrs rel clustering in
    let schema' =
      Schema.append (Relation.schema rel) (Schema.make [ ("prob", Value.TFloat) ])
    in
    let counter = ref (-1) in
    let rel' =
      Relation.map_rows schema'
        (fun row ->
          incr counter;
          Array.append row [| Value.Float probs.(!counter) |])
        rel
    in
    (match output with
    | Some path -> Csv.write_file path rel'
    | None -> print_string (Relation.to_string ~max_rows:max_int rel'))
  in
  let input =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"INPUT.csv"
        ~doc:"Clustered CSV input.")
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUTPUT.csv" ~doc:"Output path (default: stdout).")
  in
  let id_attr =
    Arg.(
      value & opt string "id" & info [ "id-attr" ] ~docv:"ATTR"
        ~doc:"Cluster identifier attribute.")
  in
  let distance =
    Arg.(
      value & opt string "info-loss"
      & info [ "distance" ] ~docv:"D" ~doc:"'info-loss' (default) or 'edit'.")
  in
  Cmd.v
    (Cmd.info "assign"
       ~doc:"Compute tuple probabilities for a clustered CSV (Figure 5)")
    Term.(const run $ input $ output $ id_attr $ distance)

(* ---- generate ---- *)

let generate_cmd =
  let run outdir sf inconsistency seed assign =
    let config = { Tpch.Datagen.default with sf; inconsistency; seed } in
    let db = Tpch.Datagen.generate config in
    let db = if assign then Tpch.Datagen.assign_probabilities db else db in
    Dirty.Store.save outdir db;
    List.iter
      (fun (t : Dirty_db.table) ->
        Printf.printf "%s: %d rows\n"
          (Filename.concat outdir (t.name ^ ".csv"))
          (Relation.cardinality t.relation))
      (Dirty_db.tables db);
    Printf.printf "%s written; reload with --dir %s\n"
      (Filename.concat outdir "manifest.csv")
      outdir
  in
  let outdir =
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"DIR"
        ~doc:"Output directory.")
  in
  let sf =
    Arg.(
      value & opt float 0.1 & info [ "sf" ] ~doc:"Scaling factor (database size).")
  in
  let inconsistency =
    Arg.(
      value & opt int 3
      & info [ "if" ] ~doc:"Inconsistency factor (mean tuples per cluster).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let assign =
    Arg.(
      value & flag
      & info [ "assign" ]
          ~doc:"Recompute probabilities with the Section 4 procedure instead \
                of the uniform default.")
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate a dirty TPC-H-style database as CSV files")
    Term.(const run $ outdir $ sf $ inconsistency $ seed $ assign)

(* ---- recover ---- *)

let recover_cmd =
  let run dir check =
    handling_failures @@ fun () ->
    let actions = Dirty.Store.recover dir in
    if actions = [] then print_endline "nothing to recover: store is clean"
    else List.iter print_endline actions;
    if check then begin
      (* verify every retained generation's journal, not just the
         committed one: a corrupt fallback is worth knowing about
         before the day the fallback is needed *)
      List.iter
        (fun (c : Dirty.Store.check) ->
          Printf.printf "generation %d (%s%s): %s\n" c.check_generation
            (match c.check_kind with
            | `Snapshot -> "snapshot"
            | `Delta -> "delta")
            (if c.check_in_chain then ", committed chain" else "")
            (match c.check_result with
            | Ok () -> "OK"
            | Error detail -> "CORRUPT: " ^ detail))
        (Dirty.Store.check_generations dir);
      let db = load_store ~lenient:false dir in
      Printf.printf "store loads cleanly: %d table(s), generation %d\n"
        (List.length (Dirty.Dirty_db.tables db))
        (Dirty.Store.generation dir)
    end
  in
  let dir =
    Arg.(
      required & pos 0 (some Cmdliner.Arg.dir) None
      & info [] ~docv:"DIR" ~doc:"The database directory to sweep.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "After sweeping, verify the journalled checksums of every \
             retained generation (snapshots and delta records, committed \
             chain and fallbacks), report each as OK or CORRUPT, then load \
             the store.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Sweep the debris an interrupted save or delta commit can leave in \
          a database directory (orphaned temp files, never-committed or \
          superseded generations) and report each removal. The committed \
          chain is never touched. With --check, every retained generation's \
          journal is verified (per-generation OK/CORRUPT report) and the \
          store is loaded; the exit code is 4 only if no loadable snapshot \
          remains — a corrupt fallback alone does not fail the check.")
    Term.(const run $ dir $ check)

(* ---- update ---- *)

let update_cmd =
  let run dir ops file compact =
    handling_failures @@ fun () ->
    let text =
      match (ops, file) with
      | _ :: _, Some _ ->
        prerr_endline "give update ops either as arguments or with --file";
        exit 1
      | _ :: _, None -> String.concat "\n" ops
      | [], Some "-" | [], None -> In_channel.input_all stdin
      | [], Some f -> In_channel.with_open_text f In_channel.input_all
    in
    let batch =
      match Dirty.Delta.of_rows (Csv.parse_rows text) with
      | batch -> batch
      | exception Dirty.Delta.Invalid msg ->
        Printf.eprintf "invalid update: %s\n" msg;
        exit 2
    in
    if batch = [] then begin
      prerr_endline "no update ops given";
      exit 1
    end;
    let db = load_store ~lenient:false dir in
    let outcome =
      match Dirty.Delta.apply db batch with
      | outcome -> outcome
      | exception Dirty.Delta.Invalid msg ->
        Printf.eprintf "invalid update: %s\n" msg;
        exit 2
    in
    List.iter
      (fun a ->
        Printf.eprintf "renormalized: %s\n" (Dirty.Repair.action_to_string a))
      outcome.Dirty.Delta.actions;
    let generation =
      if compact then begin
        Dirty.Store.save dir outcome.Dirty.Delta.db;
        Dirty.Store.generation dir
      end
      else Dirty.Store.commit_delta dir batch
    in
    Printf.printf "committed generation %d: %d op(s), %d cluster(s) touched%s\n"
      generation (List.length batch)
      (List.length outcome.Dirty.Delta.touched)
      (if compact then ", compacted to a full snapshot" else "")
  in
  let dir =
    Arg.(
      required & opt (some Cmdliner.Arg.dir) None
      & info [ "d"; "dir" ] ~docv:"DIR"
          ~doc:"The database directory to update (Dirty.Store layout).")
  in
  let ops =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"OP"
          ~doc:
            "Update operations as CSV records, one per argument: \
             'insert,TABLE,V1,...'; 'delete,TABLE,CLUSTER,ORDINAL'; \
             'split,TABLE,CLUSTER,NEWID,I1,...'; 'merge,TABLE,FROM,INTO'; \
             'reassign,TABLE,CLUSTER,W1,...'. Omitted: records are read \
             from --file or stdin.")
  in
  let file =
    Arg.(
      value & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:"Read update records from FILE ('-' for stdin).")
  in
  let compact =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "Commit the updated database as a full snapshot generation \
             instead of appending a delta record, collapsing the chain.")
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Apply an update batch (insert / delete / split / merge / reassign) \
          to a saved database and commit it crash-atomically as a new \
          generation — a checksummed delta record by default, a compacting \
          full snapshot with --compact. Touched clusters are renormalized; \
          the batch commits in full or not at all. Exit codes: 0 committed, \
          1 unreadable input (missing file, broken CSV quoting, empty \
          batch), 2 an invalid op (malformed record, unknown table or \
          cluster, bad weights), 4 the store cannot be loaded.")
    Term.(const run $ dir $ ops $ file $ compact)

(* ---- serve ---- *)

let serve_cmd =
  let run dir host port concurrency queue_capacity deadline_ms max_deadline_ms
      budget_rows cache drain_ms trace_sample slow_query_ms query_log =
    handling_failures @@ fun () ->
    let config =
      {
        Server.Serve.default_config with
        host;
        port;
        concurrency;
        queue_capacity;
        default_deadline = float_of_int deadline_ms /. 1000.0;
        max_deadline = float_of_int max_deadline_ms /. 1000.0;
        default_budget_rows = budget_rows;
        cache_capacity = cache;
        drain_deadline = float_of_int drain_ms /. 1000.0;
        trace_sample;
        slow_query_ms;
        querylog_path = query_log;
      }
    in
    let t = Server.Serve.create ~config ~dir () in
    List.iter
      (fun a -> Printf.eprintf "recovered: %s\n" a)
      (Server.Serve.recovery_log t);
    let stop _ = Server.Serve.request_shutdown t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.printf "conquer serve: listening on %s:%d (store %s)\n%!" host
      (Server.Serve.port t) dir;
    let report = Server.Serve.run t in
    if report.Server.Serve.drained then print_endline "drained cleanly"
    else begin
      Printf.eprintf "drain deadline exceeded: %d in-flight quer(ies) cancelled\n"
        report.Server.Serve.cancelled_inflight;
      exit 3
    end
  in
  let dir =
    Arg.(
      required & opt (some Cmdliner.Arg.dir) None
      & info [ "d"; "dir" ] ~docv:"DIR"
          ~doc:"The database directory to serve (Dirty.Store layout).")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port =
    Arg.(
      value & opt int 8080
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Listen port; 0 picks an ephemeral one (printed at startup).")
  in
  let concurrency =
    Arg.(
      value & opt int 4
      & info [ "concurrency" ] ~docv:"N"
          ~doc:"Worker domains executing queries.")
  in
  let queue_capacity =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission queue bound; beyond it requests are shed with 503.")
  in
  let deadline_ms =
    Arg.(
      value & opt int 5000
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline (clients override with the \
                deadline_ms query parameter).")
  in
  let max_deadline_ms =
    Arg.(
      value & opt int 60000
      & info [ "max-deadline-ms" ] ~docv:"MS"
          ~doc:"Ceiling clamped onto client-supplied deadlines.")
  in
  let budget_rows =
    Arg.(
      value & opt (some int) None
      & info [ "budget-rows" ] ~docv:"N"
          ~doc:"Default row budget per query (clients override with the \
                budget_rows query parameter).")
  in
  let cache =
    Arg.(
      value & opt int 256
      & info [ "cache" ] ~docv:"N"
          ~doc:"Result-cache capacity in entries; 0 disables caching.")
  in
  let drain_ms =
    Arg.(
      value & opt int 5000
      & info [ "drain-ms" ] ~docv:"MS"
          ~doc:"Grace period for in-flight work on shutdown; past it, \
                remaining queries are cancelled (exit code 3).")
  in
  let trace_sample =
    Arg.(
      value & opt float 0.0
      & info [ "trace-sample" ] ~docv:"RATE"
          ~doc:
            "Fraction of /query requests whose span tree is retained for \
             /debug/traces (decided deterministically from the trace id). 0 \
             disables request tracing; 1 traces everything.")
  in
  let slow_query_ms =
    Arg.(
      value & opt (some float) None
      & info [ "slow-query-ms" ] ~docv:"MS"
          ~doc:
            "Requests slower than this (total, queue wait included) are \
             counted, flagged in the query log, and promoted to a full span \
             dump even when not sampled.")
  in
  let query_log =
    Arg.(
      value & opt (some string) None
      & info [ "query-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON line per /query request (fingerprint, plan \
             hash, latency split, outcome flags) to FILE, in addition to \
             the in-memory ring behind /debug/querylog.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the query daemon: an HTTP/JSON endpoint over a database \
          directory with admission control, per-request deadlines (partial \
          answers instead of errors), client-disconnect cancellation, a \
          store circuit breaker, a generation-tagged result cache, \
          request-scoped tracing (--trace-sample, --slow-query-ms, \
          /debug/traces), a structured query log (--query-log, \
          /debug/querylog), and graceful SIGTERM drain. Routes: GET \
          /healthz, GET /readyz, GET /metrics (Prometheus), GET \
          /debug/requests|traces|querylog|gc|exemplars, POST /query (SQL \
          body; deadline_ms, budget_rows, mode parameters). Exit codes: 0 \
          after a clean drain, 3 when the drain deadline forced \
          cancellations, 4 when the store cannot be loaded.")
    Term.(
      const run $ dir $ host $ port $ concurrency $ queue_capacity
      $ deadline_ms $ max_deadline_ms $ budget_rows $ cache
      $ drain_ms $ trace_sample $ slow_query_ms $ query_log)

(* ---- trace: inspect a running daemon's observability surface ---- *)

let trace_cmd =
  let run host port id log n follow json =
    handling_failures @@ fun () ->
    let get target =
      match Server.Http.request ~host ~port target with
      | resp -> resp
      | exception (Unix.Unix_error _ as e) ->
        Printf.eprintf "cannot reach %s:%d: %s\n" host port
          (Printexc.to_string e);
        exit 4
    in
    let fail_body (resp : Server.Http.response) =
      Printf.eprintf "daemon answered %d: %s\n" resp.status
        (String.trim resp.r_body);
      exit 1
    in
    let print_record (r : Server.Querylog.record) =
      if json then print_endline (Server.Querylog.to_json r)
      else begin
        let flags =
          List.filter_map
            (fun (set, tag) -> if set then Some tag else None)
            [
              (r.cached, "cached");
              (r.truncated, "truncated");
              (r.cancelled, "cancelled");
              (r.slow, "slow");
              (r.sampled, "traced");
            ]
        in
        Printf.printf
          "#%-5d %3d %-9s %6d rows  queue=%.1fms exec=%.1fms total=%.1fms  %s%s  %s\n"
          r.seq r.status r.mode r.rows r.queue_wait_ms r.exec_ms r.total_ms
          r.trace_id
          (if flags = [] then "" else "  [" ^ String.concat "," flags ^ "]")
          r.sql
      end
    in
    match (id, log) with
    | Some id, _ ->
      (* one retained trace, rendered server-side so the output here
         matches the daemon's own /debug view *)
      let target =
        if json then Printf.sprintf "/debug/traces/%s" id
        else Printf.sprintf "/debug/traces/%s?format=pretty" id
      in
      let resp = get target in
      if resp.status <> 200 then fail_body resp;
      print_string resp.r_body;
      if String.length resp.r_body > 0
         && resp.r_body.[String.length resp.r_body - 1] <> '\n'
      then print_newline ()
    | None, true ->
      (* tail the query log by sequence cursor *)
      let parse_lines body =
        String.split_on_char '\n' body
        |> List.filter_map (fun line ->
               if String.trim line = "" then None
               else
                 match Server.Querylog.of_json line with
                 | Ok r -> Some r
                 | Error e ->
                   Printf.eprintf "skipping malformed record: %s\n" e;
                   None)
      in
      let fetch ~after ~n =
        let resp =
          get (Printf.sprintf "/debug/querylog?n=%d&after=%d" n after)
        in
        if resp.status <> 200 then fail_body resp;
        parse_lines resp.r_body
      in
      let records = fetch ~after:0 ~n in
      List.iter print_record records;
      let cursor =
        ref
          (List.fold_left (fun acc (r : Server.Querylog.record) ->
               max acc r.seq)
             0 records)
      in
      if follow then
        while true do
          Unix.sleepf 0.5;
          let fresh = fetch ~after:!cursor ~n:1000 in
          List.iter print_record fresh;
          List.iter
            (fun (r : Server.Querylog.record) -> cursor := max !cursor r.seq)
            fresh
        done
    | None, false ->
      (* no id, no --log: list what the trace ring holds *)
      let resp = get "/debug/traces" in
      if resp.status <> 200 then fail_body resp;
      print_endline resp.r_body
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Daemon address.")
  in
  let port =
    Arg.(
      value & opt int 8080
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Daemon port.")
  in
  let id =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"TRACE_ID"
          ~doc:
            "Fetch one retained trace and pretty-print its span tree \
             (per-operator wall-clock, rows, allocation).")
  in
  let log =
    Arg.(
      value & flag
      & info [ "log" ]
          ~doc:"Print the daemon's structured query log instead of a trace.")
  in
  let n =
    Arg.(
      value & opt int 50
      & info [ "n" ] ~docv:"K" ~doc:"Query-log records to fetch (with --log).")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "f"; "follow" ]
          ~doc:"With --log: keep polling for new records (like tail -f).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Raw JSON output (the trace object, or one JSON line per \
             query-log record).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Inspect a running 'conquer serve' daemon: fetch a retained \
          request trace by id (pretty span tree with queue wait, planner, \
          per-operator execution, serialization), tail the structured query \
          log with --log [--follow], or list retained traces when called \
          with no arguments. Pair with serve's --trace-sample / \
          --slow-query-ms to control what gets retained.")
    Term.(const run $ host $ port $ id $ log $ n $ follow $ json)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let run seed cases max_candidates out replay =
    handling_failures @@ fun () ->
    let failures = ref 0 in
    let rejected = ref 0 in
    let agreed = ref 0 in
    let skipped = ref 0 in
    let record name case =
      match Fuzz.Differential.run ~max_candidates case with
      | Fuzz.Differential.Rejected _ -> incr rejected
      | Fuzz.Differential.Agree _ -> incr agreed
      | Fuzz.Differential.Oracle_too_large _ -> incr skipped
      | outcome ->
        incr failures;
        let failing c =
          Fuzz.Differential.failing
            (Fuzz.Differential.run ~max_candidates c)
        in
        let small = Fuzz.Differential.minimize failing case in
        Printf.printf "FAILURE %s (minimized):\n%s%s\n" name
          (Fuzz.Case.print small)
          (Fuzz.Differential.to_string
             (Fuzz.Differential.run ~max_candidates small));
        Option.iter
          (fun dir ->
            Fuzz.Corpus.save ~dir ~name small;
            Printf.printf "counterexample saved to %s/%s.*\n" dir name)
          out;
        ignore outcome
    in
    (match replay with
    | Some dir ->
      let names = Fuzz.Corpus.names dir in
      if names = [] then begin
        Printf.eprintf "no corpus cases found in %s\n" dir;
        exit 1
      end;
      List.iter
        (fun name -> record name (Fuzz.Corpus.load ~dir ~name))
        names;
      Printf.printf
        "replayed %d corpus case(s): %d agree, %d rejected, %d skipped, %d \
         failure(s)\n"
        (List.length names) !agreed !rejected !skipped !failures
    | None ->
      Printf.printf "fuzzing %d case(s) with seed %d\n%!" cases seed;
      for i = 0 to cases - 1 do
        let rand = Random.State.make [| seed; i |] in
        let case = QCheck.Gen.generate1 ~rand (Fuzz.Case.gen ()) in
        record (Printf.sprintf "seed%d-case%d" seed i) case
      done;
      Printf.printf
        "%d case(s): %d agree with the oracle, %d rejected by the \
         rewritability check, %d over oracle budget, %d failure(s)\n"
        cases !agreed !rejected !skipped !failures);
    if !failures > 0 then exit 1
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:"Generator seed; case $(i,i) derives its stream from (seed, i), \
                so any failing case replays from the seed alone.")
  in
  let cases =
    Arg.(
      value & opt int 500
      & info [ "cases" ] ~docv:"N" ~doc:"Number of (database, query) cases.")
  in
  let max_candidates =
    Arg.(
      value & opt int 200_000
      & info [ "max-candidates" ] ~docv:"N"
          ~doc:"Skip databases with more candidate databases than this \
                (the oracle enumerates them all).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write minimized counterexamples to this directory as \
                corpus-format CSV + SQL.")
  in
  let replay =
    Arg.(
      value & opt (some Cmdliner.Arg.dir) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:"Instead of generating cases, replay every corpus case in DIR \
                (see test/corpus for the format).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random dirty databases and SPJ queries, \
          RewriteClean on the engine versus the candidate-enumeration \
          oracle. Prints minimized \
          counterexamples; exit code 1 if any case disagrees.")
    Term.(const run $ seed $ cases $ max_candidates $ out $ replay)

(* ---- demo ---- *)

let demo_cmd =
  let run () =
    let v_s s = Value.String s
    and v_i i = Value.Int i
    and v_f f = Value.Float f in
    let orders =
      Relation.create
        (Schema.make
           [
             ("id", Value.TString); ("orderid", Value.TInt);
             ("custfk", Value.TString); ("cidfk", Value.TString);
             ("quantity", Value.TInt); ("prob", Value.TFloat);
           ])
        [
          [| v_s "o1"; v_i 11; v_s "m1"; v_s "c1"; v_i 3; v_f 1.0 |];
          [| v_s "o2"; v_i 12; v_s "m2"; v_s "c1"; v_i 2; v_f 0.5 |];
          [| v_s "o2"; v_i 13; v_s "m3"; v_s "c2"; v_i 5; v_f 0.5 |];
        ]
    in
    let customer =
      Relation.create
        (Schema.make
           [
             ("id", Value.TString); ("custid", Value.TString);
             ("name", Value.TString); ("balance", Value.TInt);
             ("prob", Value.TFloat);
           ])
        [
          [| v_s "c1"; v_s "m1"; v_s "John"; v_i 20_000; v_f 0.7 |];
          [| v_s "c1"; v_s "m2"; v_s "John"; v_i 30_000; v_f 0.3 |];
          [| v_s "c2"; v_s "m3"; v_s "Mary"; v_i 27_000; v_f 0.2 |];
          [| v_s "c2"; v_s "m4"; v_s "Marion"; v_i 5_000; v_f 0.8 |];
        ]
    in
    let db =
      Dirty_db.add_table
        (Dirty_db.add_table Dirty_db.empty
           (Dirty_db.make_table ~name:"orders" ~id_attr:"id" ~prob_attr:"prob"
              orders))
        (Dirty_db.make_table ~name:"customer" ~id_attr:"id" ~prob_attr:"prob"
           customer)
    in
    let s = Conquer.Clean.create db in
    print_endline "The dirty database of Figure 2:";
    List.iter
      (fun (t : Dirty_db.table) ->
        Printf.printf "%s:\n%s" t.name (Relation.to_string t.relation))
      (Dirty_db.tables db);
    let sql =
      "select o.id, c.id from orders o, customer c \
       where o.cidfk = c.id and c.balance > 10000"
    in
    Printf.printf "\nQuery: %s\n" sql;
    (match Conquer.Clean.rewrite s sql with
    | Ok text -> Printf.printf "\nRewriteClean output:\n%s\n" text
    | Error _ -> ());
    Printf.printf "\nClean answers:\n%s" (Relation.to_string (Conquer.Clean.answers s sql))
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Walk through the paper's running example")
    Term.(const run $ const ())

(* Pull the first occurrence of [--name VALUE] or [--name=VALUE] out of
   an argument list; returns the value (if any) and the remaining
   arguments.  Used for the global telemetry flags, which — like
   --verbose — apply to every subcommand. *)
let extract_value name args =
  let prefix = name ^ "=" in
  let plen = String.length prefix in
  let rec go acc = function
    | [] -> (None, List.rev acc)
    | a :: value :: rest when a = name -> (Some value, List.rev_append acc rest)
    | [ a ] when a = name -> (None, List.rev acc)
    | a :: rest
      when String.length a > plen && String.sub a 0 plen = prefix ->
      (Some (String.sub a plen (String.length a - plen)), List.rev_append acc rest)
    | a :: rest -> go (a :: acc) rest
  in
  go [] args

let () =
  (* --verbose anywhere on the command line turns on debug logging
     (planner plans, rewritten queries) *)
  if Array.exists (fun a -> a = "--verbose") Sys.argv then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let args = List.filter (fun a -> a <> "--verbose") (Array.to_list Sys.argv) in
  (* --trace FILE / --metrics FILE anywhere enable telemetry globally *)
  let trace_file, args = extract_value "--trace" args in
  let metrics_file, args = extract_value "--metrics" args in
  (* --jobs N anywhere sets the process-wide parallelism default of
     probability assignment (overrides CONQUER_JOBS); results are
     identical for any N *)
  let jobs_arg, args = extract_value "--jobs" args in
  (match jobs_arg with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Engine.Parallel.set_default_jobs n
    | _ ->
      prerr_endline ("conquer: --jobs expects a positive integer, got " ^ s);
      exit 1)
  | None -> ());
  (* --retries N / --io-backoff-ms N anywhere tune the process-wide
     retry policy for transient store I/O failures *)
  let retries_arg, args = extract_value "--retries" args in
  (match retries_arg with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 ->
      Fault.Retry.set_policy { (Fault.Retry.policy ()) with attempts = n }
    | _ ->
      prerr_endline ("conquer: --retries expects a positive integer, got " ^ s);
      exit 1)
  | None -> ());
  let backoff_arg, args = extract_value "--io-backoff-ms" args in
  (match backoff_arg with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some ms when ms >= 0 ->
      Fault.Retry.set_policy
        { (Fault.Retry.policy ()) with base_backoff = float_of_int ms /. 1000.0 }
    | _ ->
      prerr_endline
        ("conquer: --io-backoff-ms expects a non-negative integer, got " ^ s);
      exit 1)
  | None -> ());
  (match trace_file with
  | Some path ->
    Telemetry.Control.enable ();
    Telemetry.Span.subscribe (Telemetry.Export.trace_writer path)
  | None -> ());
  (match metrics_file with
  | Some path ->
    Telemetry.Control.enable ();
    at_exit (fun () -> Telemetry.Export.write_metrics path)
  | None -> ());
  let info =
    Cmd.info "conquer" ~version:"1.0.0"
      ~doc:"Clean answers over dirty databases (ConQuer, ICDE 2006)"
  in
  let argv = Array.of_list args in
  exit
    (Cmd.eval ~argv
       (Cmd.group info
          [
            query_cmd; profile_cmd; validate_cmd; rewrite_cmd; why_cmd;
            expected_cmd; dist_cmd; sample_cmd; match_cmd; assign_cmd;
            generate_cmd; update_cmd; recover_cmd; serve_cmd; trace_cmd;
            fuzz_cmd;
            demo_cmd;
          ]))
