(* fig8-queries: the paper's Figure 8 in-process.  One caller runs
   the 13 evaluation queries as originals ([Clean.original]) and as
   rewritten clean-answer queries ([Clean.answers]), interleaved, pass
   after pass, over a store of sf 2 and inconsistency factor 3.  No
   server, cache or writes are involved. *)

open Util

let sf = 2.0
let inconsistency = 3
let setup_reps = 5
let min_passes = 3
let queries = Array.of_list Tpch.Queries.all
let qname (q : Tpch.Queries.query) = Printf.sprintf "q%02d" q.qid

(* bitwise identity of an answer: the marshalled rows *)
let digest rel = Digest.string (Marshal.to_string (Dirty.Relation.rows rel) [])

let row_compare a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then compare (Array.length a) (Array.length b)
    else
      let c = Dirty.Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let sorted_rows rows =
  let a = Array.copy rows in
  Array.sort row_compare a;
  a

let dedup sorted =
  let out = ref [] in
  Array.iter
    (fun r ->
      match !out with
      | prev :: _ when row_compare prev r = 0 -> ()
      | _ -> out := r :: !out)
    sorted;
  Array.of_list (List.rev !out)

(* The store keeps each probability to 6 significant digits and
   accepts a cluster whose sum is within [Dirty_db.tolerance] of 1, so
   a clean answer over up to eight joined clusters may exceed 1 by
   that much. *)
let max_prob = ((1.0 +. Dirty.Dirty_db.tolerance) ** 8.0) +. 1e-9

(* The answer gates: the rewritten answer's key set (every column but
   clean_prob) is exactly DISTINCT of the original answer, and every
   clean_prob lies in (0, max_prob]. *)
let check_answers q ~original ~rewritten fail =
  let rows = Dirty.Relation.rows rewritten in
  let keys =
    sorted_rows (Array.map (fun r -> Array.sub r 0 (Array.length r - 1)) rows)
  in
  let distinct = dedup (sorted_rows (Dirty.Relation.rows original)) in
  if
    Array.length keys <> Array.length distinct
    || not (Array.for_all2 (fun a b -> row_compare a b = 0) keys distinct)
  then
    fail
      (Printf.sprintf
         "%s: rewritten key set (%d keys) differs from DISTINCT original (%d rows)"
         (qname q) (Array.length keys) (Array.length distinct));
  Array.iter
    (fun row ->
      let p = Conquer.Clean.answer_probability rewritten row in
      if not (p > 0.0 && p <= max_prob) then
        fail (Printf.sprintf "%s: clean_prob %.17g outside (0, 1]" (qname q) p))
    rows

(* The same work [Clean.answers] / [Clean.original] do, one layer per
   call and span: parse, rewrite (rewritten mode only), plan, and plan
   execution with the jobs and executor [Database.query_ast] uses. *)
let split ~trace ~parent ~session ~(config : Engine.Planner.config) ~mode q =
  let attrs = [ ("query", qname q); ("mode", mode) ] in
  let span name f = fst (Spans.time ~trace ~parent ~attrs name f) in
  let ast = span "sql.parse" (fun () -> Sql.Parser.parse_query q.sql) in
  let ast =
    if mode = "rewritten" then
      span "conquer.rewrite" (fun () ->
          Conquer.Rewrite.rewrite_exn (Conquer.Clean.env session) ast)
    else ast
  in
  let engine = Conquer.Clean.engine session in
  let plan = span "engine.plan" (fun () -> Engine.Database.plan ~config engine ast) in
  span "engine.run_plan" (fun () ->
      Engine.Database.run_plan ~jobs:config.jobs ~chunked:config.chunked engine plan)

let attr s k = List.assoc_opt k s.Spans.attrs

let layer_ms ?query ~mode name =
  let keep s =
    s.Spans.name = name
    && attr s "mode" = Some mode
    && (query = None || attr s "query" = query)
  in
  ms (Metric.median (Spans.per_trace keep))

let run ~seed ~seconds ~trace =
  let tmp = fresh_temp_dir "fig8-queries" in
  let dir = Filename.concat tmp "store" in
  generate ~sf ~inconsistency ~seed dir;
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  (* set-up: load the store and build the session, several times *)
  let session = ref None and loads = ref [] and creates = ref [] in
  for _ = 1 to setup_reps do
    session := None;
    Gc.full_major ();
    let db, tl = timed (fun () -> Dirty.Store.load dir) in
    let s, tc = timed (fun () -> Conquer.Clean.create db) in
    session := Some s;
    loads := tl :: !loads;
    creates := tc :: !creates
  done;
  let session = Option.get !session in
  let jobs = Domain.recommended_domain_count () in
  Engine.Parallel.warm jobs;
  let config = { Engine.Planner.default_config with jobs } in
  let original q = Conquer.Clean.original ~config session q.Tpch.Queries.sql in
  let answers q = Conquer.Clean.answers ~config session q.Tpch.Queries.sql in
  (* untimed warm-up pass: the answer gates, and the digests every
     later pass must reproduce bit for bit *)
  let refs =
    Array.map
      (fun q ->
        let o = original q and r = answers q in
        check_answers q ~original:o ~rewritten:r fail;
        (digest o, digest r, Dirty.Relation.cardinality r))
      queries
  in
  let nq = Array.length queries in
  let orig_t = Array.make nq [] and rew_t = Array.make nq [] in
  let suites = ref [] and traced_suites = ref [] and gc_words = ref [] in
  let passes = ref 0 in
  let t_start = now () in
  while !passes < min_passes || now () -. t_start < seconds do
    let pass = !passes in
    Gc.full_major ();
    let suite = ref 0.0 and traced = ref 0.0 and words = ref 0.0 in
    Array.iteri
      (fun i q ->
        let ref_o, ref_r, _ = refs.(i) in
        let measure f expected times what =
          (* quick_stat counts the pool domains' allocations too *)
          let w0 = (Gc.quick_stat ()).minor_words in
          let rel, t = timed (fun () -> f q) in
          words := !words +. ((Gc.quick_stat ()).minor_words -. w0);
          times.(i) <- t :: times.(i);
          if digest rel <> expected then
            fail (Printf.sprintf "%s: %s answer changed in pass %d" (qname q) what pass);
          t
        in
        let run_original () = ignore (measure original ref_o orig_t "original") in
        let run_rewritten () =
          suite := !suite +. measure answers ref_r rew_t "rewritten"
        in
        (* alternate which side runs first, so neither always finds
           the caches warmed by the other *)
        if pass mod 2 = 0 then (run_original (); run_rewritten ())
        else (run_rewritten (); run_original ());
        if trace then
          List.iter
            (fun (mode, expected) ->
              let root = Spans.fresh () in
              let t0 = now () in
              let rel = split ~trace:pass ~parent:root ~session ~config ~mode q in
              let t1 = now () in
              Spans.add ~trace:pass ~id:root ~parent:(-1)
                ~attrs:[ ("query", qname q); ("mode", mode) ]
                "fig8.query" t0 t1;
              if mode = "rewritten" then traced := !traced +. (t1 -. t0);
              if digest rel <> expected then
                fail
                  (Printf.sprintf "%s: traced %s split differs from Clean.%s" (qname q)
                     mode
                     (if mode = "rewritten" then "answers" else "original")))
            [ ("original", ref_o); ("rewritten", ref_r) ])
      queries;
    suites := !suite :: !suites;
    traced_suites := !traced :: !traced_suites;
    gc_words := !words :: !gc_words;
    incr passes
  done;
  let passes = !passes in
  let peak = peak_rss_mb None in
  let med l = ms (Metric.median l) in
  let rew_meds = Array.map med rew_t and orig_meds = Array.map med orig_t in
  (* per-pass geomeans over the queries, for the quartiles *)
  let per_pass f =
    List.init passes (fun j -> Metric.geomean (List.init nq (fun i -> f i j)))
  in
  let nth l j = List.nth l j in
  let geo_metric name times meds =
    let m =
      Metric.of_samples name "ms" Lower (per_pass (fun i j -> ms (nth times.(i) j)))
    in
    { m with value = Metric.geomean (Array.to_list meds); n = nq * passes }
  in
  let rew_geo = geo_metric "rewritten_geomean_ms" rew_t rew_meds in
  let orig_geo = geo_metric "original_geomean_ms" orig_t orig_meds in
  let ratio =
    let m =
      Metric.of_samples "overhead_ratio" "ratio" Lower
        (per_pass (fun i j -> nth rew_t.(i) j /. nth orig_t.(i) j))
    in
    {
      m with
      value = Metric.geomean (List.init nq (fun i -> rew_meds.(i) /. orig_meds.(i)));
    }
  in
  let setup =
    Metric.of_samples "setup_s" "s" Lower (List.map2 ( +. ) !loads !creates)
  in
  let rss = Metric.scalar "peak_rss_mb" "MB" Lower peak in
  let suite = Metric.of_samples "rewritten_suite_ms" "ms" Lower (List.map ms !suites) in
  let rate =
    Metric.of_samples "clean_answers_per_s" "1/s" Higher
      (List.map (fun s -> float_of_int nq /. s) !suites)
  in
  let per_query =
    List.concat
      (List.mapi
         (fun i q ->
           [
             Metric.of_samples (qname q ^ ".rewritten_ms") "ms" Lower
               (List.map ms rew_t.(i));
             Metric.of_samples (qname q ^ ".original_ms") "ms" Lower
               (List.map ms orig_t.(i));
             Metric.scalar ~n:passes (qname q ^ ".ratio") "ratio" Lower
               (rew_meds.(i) /. orig_meds.(i));
           ])
         (Array.to_list queries))
  in
  let layers =
    if not trace then []
    else begin
      let layer name v unit_ = Metric.scalar ~n:passes name unit_ Lower v in
      let leaves =
        List.fold_left ( +. ) 0.0
          (Spans.per_trace (fun s ->
               s.Spans.parent <> -1 && attr s "mode" = Some "rewritten"))
      in
      let untraced = med !suites in
      [
        layer "sql.parse_ms" (layer_ms ~mode:"rewritten" "sql.parse") "ms";
        layer "conquer.rewrite_ms" (layer_ms ~mode:"rewritten" "conquer.rewrite") "ms";
        layer "engine.plan_ms" (layer_ms ~mode:"rewritten" "engine.plan") "ms";
        layer "engine.exec_ms.rewritten"
          (layer_ms ~mode:"rewritten" "engine.run_plan") "ms";
        layer "engine.exec_ms.original" (layer_ms ~mode:"original" "engine.run_plan") "ms";
        layer "dirty.store.load_ms" (med !loads) "ms";
        layer "conquer.session_create_ms" (med !creates) "ms";
        layer "gc.minor_words_per_pass" (Metric.median !gc_words) "count";
        layer "engine.answer_rows"
          (float_of_int (Array.fold_left (fun acc (_, _, n) -> acc + n) 0 refs))
          "count";
        Metric.scalar ~n:passes "trace.coverage" "ratio" Higher
          (leaves /. List.fold_left ( +. ) 0.0 !suites);
        layer "trace.overhead_pct"
          ((med !traced_suites -. untraced) /. untraced *. 100.0)
          "%";
      ]
      @ List.concat_map
          (fun q ->
            let query = Some (qname q) in
            [
              layer
                (Printf.sprintf "engine.exec.%s.rewritten_ms" (qname q))
                (layer_ms ?query ~mode:"rewritten" "engine.run_plan")
                "ms";
              layer
                (Printf.sprintf "engine.exec.%s.original_ms" (qname q))
                (layer_ms ?query ~mode:"original" "engine.run_plan")
                "ms";
            ])
          (Array.to_list queries)
    end
  in
  {
    Metric.report =
      [ setup; rss; suite; rew_geo; orig_geo; ratio; rate ] @ per_query;
    e2e =
      [
        setup;
        rss;
        Metric.rename "latency_ms" rew_geo;
        Metric.rename "throughput_per_s" rate;
      ];
    layers;
    attempted = 2 * nq * (passes + 1);
    failed = 0;
    failures = List.rev !failures;
  }
