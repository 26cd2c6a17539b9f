(* Tests for the telemetry subsystem: the metrics registry, tracing
   spans, the exporters, the shared timing helper, and the
   instrumentation wired through the engine and the cleaner. *)

open Dirty

(* every test leaves the global flag off, the way production code
   expects it *)
let with_telemetry f =
  Telemetry.Metrics.reset ();
  Telemetry.Control.with_enabled f

(* ---- metrics registry ---- *)

let test_disabled_noop () =
  Telemetry.Metrics.reset ();
  let c = Telemetry.Metrics.counter "test.noop.counter" in
  let g = Telemetry.Metrics.gauge "test.noop.gauge" in
  let h = Telemetry.Metrics.histogram "test.noop.histogram" in
  Telemetry.Metrics.inc ~n:5 c;
  Telemetry.Metrics.set g 3.0;
  Telemetry.Metrics.observe h 0.1;
  Alcotest.(check int) "counter untouched" 0 (Telemetry.Metrics.count c);
  Fixtures.check_float "gauge untouched" 0.0 (Telemetry.Metrics.gauge_value g);
  Alcotest.(check int) "histogram untouched" 0 (Telemetry.Metrics.histogram_total h)

let test_counter_and_gauge () =
  with_telemetry @@ fun () ->
  let c = Telemetry.Metrics.counter "test.basic.counter" in
  Telemetry.Metrics.inc c;
  Telemetry.Metrics.inc ~n:4 c;
  Alcotest.(check int) "counter" 5 (Telemetry.Metrics.count c);
  (* find-or-create hands back the same underlying metric *)
  let c' = Telemetry.Metrics.counter "test.basic.counter" in
  Alcotest.(check int) "same handle" 5 (Telemetry.Metrics.count c');
  let g = Telemetry.Metrics.gauge "test.basic.gauge" in
  Telemetry.Metrics.set g 2.5;
  Telemetry.Metrics.add g 1.0;
  Fixtures.check_float "gauge" 3.5 (Telemetry.Metrics.gauge_value g)

let test_kind_mismatch () =
  ignore (Telemetry.Metrics.counter "test.kind");
  match Telemetry.Metrics.histogram "test.kind" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted"

let test_histogram_buckets () =
  with_telemetry @@ fun () ->
  let h =
    Telemetry.Metrics.histogram ~bounds:[| 1.0; 2.0; 4.0 |] "test.buckets"
  in
  List.iter (Telemetry.Metrics.observe h) [ 0.5; 1.0; 1.5; 3.0; 100.0 ];
  (* raw counts: (<=1) gets 0.5 and 1.0; (<=2) gets 1.5; (<=4) gets
     3.0; the overflow bucket gets 100 *)
  Alcotest.(check (array int)) "raw counts" [| 2; 1; 1; 1 |]
    (Telemetry.Metrics.histogram_counts h);
  Alcotest.(check int) "total" 5 (Telemetry.Metrics.histogram_total h);
  Fixtures.check_float "sum" 106.0 (Telemetry.Metrics.histogram_sum h);
  let samples = Telemetry.Metrics.snapshot () in
  match
    List.find_opt (fun (s : Telemetry.Metrics.sample) -> s.name = "test.buckets") samples
  with
  | Some { data = Telemetry.Metrics.Histogram_value hs; _ } ->
    Alcotest.(check (array int)) "cumulative counts" [| 2; 3; 4; 5 |] hs.hs_counts;
    Alcotest.(check int) "snapshot total" 5 hs.hs_total
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_reset () =
  with_telemetry @@ fun () ->
  let c = Telemetry.Metrics.counter "test.reset.counter" in
  Telemetry.Metrics.inc ~n:7 c;
  Telemetry.Metrics.reset ();
  Alcotest.(check int) "zeroed, handle still valid" 0 (Telemetry.Metrics.count c);
  Telemetry.Metrics.inc c;
  Alcotest.(check int) "usable after reset" 1 (Telemetry.Metrics.count c)

(* four domains hammering the same counter, gauge and histogram: every
   update must land (fetch-and-add / CAS / mutex — no lost updates) *)
let test_concurrent_counters () =
  with_telemetry @@ fun () ->
  let c = Telemetry.Metrics.counter "test.concurrent.counter" in
  let g = Telemetry.Metrics.gauge "test.concurrent.gauge" in
  let h = Telemetry.Metrics.histogram ~bounds:[| 1.0 |] "test.concurrent.hist" in
  let per_domain = 10_000 in
  let work () =
    for _ = 1 to per_domain do
      Telemetry.Metrics.inc c;
      Telemetry.Metrics.add g 1.0;
      Telemetry.Metrics.observe h 0.5
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" (4 * per_domain)
    (Telemetry.Metrics.count c);
  Fixtures.check_float "no lost gauge adds"
    (Float.of_int (4 * per_domain))
    (Telemetry.Metrics.gauge_value g);
  Alcotest.(check int) "no lost observations" (4 * per_domain)
    (Telemetry.Metrics.histogram_total h)

(* ---- spans ---- *)

let test_span_disabled_passthrough () =
  Alcotest.(check bool) "telemetry off" false (Telemetry.Control.enabled ());
  let v = Telemetry.Span.with_ ~name:"never" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 v

let test_span_nesting () =
  let v, roots =
    Telemetry.Span.collecting (fun () ->
        Telemetry.Span.with_ ~name:"root" (fun () ->
            Telemetry.Span.add_attr "k" "v";
            Telemetry.Span.with_ ~name:"a" (fun () -> ());
            Telemetry.Span.with_ ~name:"b" (fun () -> ());
            42))
  in
  Alcotest.(check int) "result" 42 v;
  match roots with
  | [ root ] ->
    Alcotest.(check string) "root name" "root" root.Telemetry.Span.name;
    Alcotest.(check (list string)) "children in order" [ "a"; "b" ]
      (List.map (fun (s : Telemetry.Span.t) -> s.name) root.children);
    Alcotest.(check (option string)) "attr" (Some "v")
      (List.assoc_opt "k" root.attrs);
    Alcotest.(check int) "count" 3 (Telemetry.Span.count root);
    List.iter
      (fun (child : Telemetry.Span.t) ->
        Alcotest.(check bool) "parent time covers child" true
          (root.elapsed >= child.elapsed))
      root.children
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_span_exception_safety () =
  let (), roots =
    Telemetry.Span.collecting (fun () ->
        try Telemetry.Span.with_ ~name:"boom" (fun () -> raise Exit)
        with Exit -> ())
  in
  Alcotest.(check (list string)) "failed span still completes" [ "boom" ]
    (List.map (fun (s : Telemetry.Span.t) -> s.name) roots);
  (* the span stack recovered: a fresh span is again a root *)
  let (), roots = Telemetry.Span.collecting (fun () ->
      Telemetry.Span.with_ ~name:"after" (fun () -> ()))
  in
  Alcotest.(check (list string)) "stack recovered" [ "after" ]
    (List.map (fun (s : Telemetry.Span.t) -> s.name) roots)

(* ---- the span allocation meter ---- *)

(* [k] arrays of 5 cells, 6 words each with the header *)
let alloc_small k =
  for i = 1 to k do
    ignore (Sys.opaque_identity (Array.make 5 i))
  done

let measured f =
  match snd (Telemetry.Span.collecting (fun () -> Telemetry.Span.with_ ~name:"alloc" f)) with
  | [ root ] -> root
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* the span's own bookkeeping is a few dozen words *)
let check_words msg expected actual =
  let slack = 128.0 in
  if Float.abs (actual -. expected) > slack then
    Alcotest.failf "%s: %.0f words, expected %.0f within %.0f" msg actual expected slack

let minor_collections () = (Gc.quick_stat ()).minor_collections

let test_span_words_no_gc () =
  Gc.minor ();
  let gcs = minor_collections () in
  (* arrays of 1,000 cells are allocated in the major heap *)
  let root =
    measured (fun () ->
        alloc_small 1000;
        for i = 1 to 10 do
          ignore (Sys.opaque_identity (Array.make 1000 i))
        done)
  in
  Alcotest.(check int) "no minor collection inside" gcs (minor_collections ());
  check_words "minor" 6000.0 root.minor_words;
  check_words "major" 10010.0 root.major_words

let test_span_words_forced_gc () =
  let root =
    measured (fun () ->
        alloc_small 1000;
        Gc.minor ();
        alloc_small 1000)
  in
  check_words "minor" 12000.0 root.minor_words

let test_span_words_natural_gc () =
  let gcs = minor_collections () in
  (* over twice the minor heap *)
  let k = ((Gc.get ()).minor_heap_size / 3) + 1 in
  let root = measured (fun () -> alloc_small k) in
  Alcotest.(check bool) "a minor collection inside" true (minor_collections () > gcs);
  check_words "minor" (float_of_int (6 * k)) root.minor_words

let span_names root =
  List.rev
    (Telemetry.Span.fold_preorder
       (fun acc ~depth:_ (s : Telemetry.Span.t) -> s.name :: acc)
       [] root)

let test_clean_answers_spans () =
  Telemetry.Metrics.reset ();
  let session = Conquer.Clean.create (Fixtures.figure2_db ()) in
  let answers, roots =
    Telemetry.Span.collecting (fun () -> Conquer.Clean.answers session Fixtures.q1)
  in
  Alcotest.(check bool) "query answered" true (Relation.cardinality answers > 0);
  match roots with
  | [ root ] ->
    Alcotest.(check string) "root is the clean-answer aggregation"
      "conquer.answers" root.Telemetry.Span.name;
    let names = span_names root in
    Alcotest.(check bool) "rewrite span" true (List.mem "conquer.rewrite" names);
    Alcotest.(check bool) "planner span" true (List.mem "planner.plan" names);
    Alcotest.(check bool) "plan operator spans" true
      (List.exists
         (fun n -> String.length n > 5 && String.sub n 0 5 = "exec.")
         names);
    let has_rows_out =
      Telemetry.Span.fold_preorder
        (fun acc ~depth:_ (s : Telemetry.Span.t) ->
          acc || List.mem_assoc "rows_out" s.attrs)
        false root
    in
    Alcotest.(check bool) "operators report rows_out" true has_rows_out;
    Alcotest.(check (option string)) "root reports the answer count"
      (Some (string_of_int (Relation.cardinality answers)))
      (List.assoc_opt "answers" root.attrs);
    (* the instrumented run also fed the metrics registry *)
    let count name =
      Option.value ~default:0 (Telemetry.Metrics.counter_value name)
    in
    Alcotest.(check bool) "operators counted" true (count "engine.exec.operators" > 0);
    Alcotest.(check bool) "rows counted" true (count "engine.exec.rows_out" > 0);
    Alcotest.(check int) "one plan" 1 (count "engine.planner.plans");
    Alcotest.(check int) "one conquer query" 1 (count "conquer.queries");
    Alcotest.(check int) "one rewrite" 1 (count "conquer.rewrite.queries")
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* ---- store instrumentation ---- *)

let test_store_counters () =
  with_telemetry @@ fun () ->
  let dir = Filename.temp_file "telemetry-store" "" in
  Sys.remove dir;
  let count name =
    Option.value ~default:0 (Telemetry.Metrics.counter_value name)
  in
  let files0 = count "dirty.store.files_written" in
  Dirty.Store.save dir (Fixtures.figure2_db ());
  (* two tables, the journal, the manifest, and the CURRENT flip *)
  Alcotest.(check int) "files written" 5
    (count "dirty.store.files_written" - files0);
  Alcotest.(check int) "one rename per file" 5 (count "dirty.store.renames");
  Alcotest.(check bool) "bytes accounted" true
    (count "dirty.store.bytes_written" > 0);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* ---- exporters ---- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_prometheus_dump () =
  with_telemetry @@ fun () ->
  let c = Telemetry.Metrics.counter ~help:"a test counter" "test.prom.counter" in
  Telemetry.Metrics.inc ~n:3 c;
  let h = Telemetry.Metrics.histogram "test.prom.hist" in
  Telemetry.Metrics.observe h 0.5;
  let dump = Telemetry.Export.prometheus_string () in
  (* counters expose the family with the _total suffix *)
  Alcotest.(check bool) "counter line" true
    (contains dump "conquer_test_prom_counter_total 3");
  Alcotest.(check bool) "help line" true
    (contains dump "# HELP conquer_test_prom_counter_total a test counter");
  Alcotest.(check bool) "type line" true
    (contains dump "# TYPE conquer_test_prom_counter_total counter");
  Alcotest.(check bool) "histogram buckets" true
    (contains dump "conquer_test_prom_hist_bucket{le=");
  Alcotest.(check bool) "histogram +Inf bucket" true
    (contains dump "conquer_test_prom_hist_bucket{le=\"+Inf\"} 1");
  Alcotest.(check bool) "histogram count" true
    (contains dump "conquer_test_prom_hist_count 1")

(* a promtool-style structural check over the whole exposition: every
   line is a comment or [name[{labels}] value] with a legal metric
   name and a parseable Prometheus float, HELP text is escaped, and
   every histogram family ends with +Inf/_sum/_count *)
let test_prometheus_conformance () =
  with_telemetry @@ fun () ->
  let c =
    Telemetry.Metrics.counter ~help:"line one\nline two \\ backslash"
      "test.conf.counter"
  in
  Telemetry.Metrics.inc c;
  let g = Telemetry.Metrics.gauge "test.conf.gauge" in
  Telemetry.Metrics.set g Float.infinity;
  let h = Telemetry.Metrics.histogram ~help:"h" "test.conf.hist" in
  Telemetry.Metrics.observe h 0.003;
  Telemetry.Metrics.observe h 1e9;
  let dump = Telemetry.Export.prometheus_string () in
  let name_ok name =
    name <> ""
    && (match name.[0] with
       | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
       | _ -> false)
    && String.for_all
         (fun ch ->
           match ch with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
           | _ -> false)
         name
  in
  let value_ok v =
    v = "NaN" || v = "+Inf" || v = "-Inf" || float_of_string_opt v <> None
  in
  let check_line line =
    if line = "" || String.length line >= 2 && String.sub line 0 2 = "# " then begin
      (* comment lines must be HELP or TYPE with a legal family name *)
      if line <> "" then
        match String.split_on_char ' ' line with
        | "#" :: ("HELP" | "TYPE") :: family :: _ ->
          Alcotest.(check bool) ("family name: " ^ line) true (name_ok family)
        | _ -> Alcotest.failf "bad comment line: %s" line
    end
    else begin
      (* sample line: name[{labels}] value *)
      let name_part, value_part =
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "no value on line: %s" line
        | Some i ->
          ( String.sub line 0 i,
            String.sub line (i + 1) (String.length line - i - 1) )
      in
      let bare_name =
        match String.index_opt name_part '{' with
        | None -> name_part
        | Some i ->
          Alcotest.(check bool)
            ("label block closes: " ^ line)
            true
            (name_part.[String.length name_part - 1] = '}');
          String.sub name_part 0 i
      in
      Alcotest.(check bool) ("metric name: " ^ line) true (name_ok bare_name);
      Alcotest.(check bool) ("value: " ^ line) true (value_ok value_part)
    end
  in
  List.iter check_line (String.split_on_char '\n' dump);
  (* the multi-line help text is escaped onto one line *)
  Alcotest.(check bool) "help newline escaped" true
    (contains dump "line one\\nline two \\\\ backslash");
  Alcotest.(check bool) "inf gauge spelled +Inf" true
    (contains dump "conquer_test_conf_gauge +Inf");
  Alcotest.(check bool) "hist sum present" true
    (contains dump "conquer_test_conf_hist_sum");
  Alcotest.(check bool) "hist count present" true
    (contains dump "conquer_test_conf_hist_count 2");
  Alcotest.(check bool) "hist +Inf bucket present" true
    (contains dump "conquer_test_conf_hist_bucket{le=\"+Inf\"} 2")

(* ---- trace context ---- *)

let test_trace_ids_deterministic () =
  Telemetry.Trace.set_seed 42;
  let first = List.init 8 (fun _ -> Telemetry.Trace.gen_id ()) in
  Telemetry.Trace.set_seed 42;
  let second = List.init 8 (fun _ -> Telemetry.Trace.gen_id ()) in
  Alcotest.(check (list string)) "seeded stream reproduces" first second;
  List.iter
    (fun id ->
      Alcotest.(check bool) ("valid id " ^ id) true (Telemetry.Trace.valid_id id);
      Alcotest.(check int) "16 hex chars" 16 (String.length id))
    first;
  Alcotest.(check bool) "distinct ids" true
    (List.length (List.sort_uniq String.compare first) = 8);
  Alcotest.(check bool) "reject empty" false (Telemetry.Trace.valid_id "");
  Alcotest.(check bool) "reject non-hex" false (Telemetry.Trace.valid_id "xyz");
  Alcotest.(check bool) "reject oversized" false
    (Telemetry.Trace.valid_id (String.make 65 'a'))

let test_trace_sampling () =
  (* pure in (rate, id): same verdict on every call *)
  Telemetry.Trace.set_seed 7;
  let ids = List.init 2000 (fun _ -> Telemetry.Trace.gen_id ()) in
  List.iter
    (fun id ->
      Alcotest.(check bool) "rate 0 drops" false
        (Telemetry.Trace.decide ~rate:0.0 id);
      Alcotest.(check bool) "rate 1 keeps" true
        (Telemetry.Trace.decide ~rate:1.0 id);
      Alcotest.(check bool) "decision stable"
        (Telemetry.Trace.decide ~rate:0.3 id)
        (Telemetry.Trace.decide ~rate:0.3 id))
    ids;
  let kept =
    List.length (List.filter (Telemetry.Trace.decide ~rate:0.3) ids)
  in
  let fraction = float_of_int kept /. 2000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "rate 0.3 keeps roughly 30%% (got %.3f)" fraction)
    true
    (fraction > 0.2 && fraction < 0.4);
  (* monotone: anything kept at a lower rate is kept at a higher one *)
  List.iter
    (fun id ->
      if Telemetry.Trace.decide ~rate:0.1 id then
        Alcotest.(check bool) "monotone in rate" true
          (Telemetry.Trace.decide ~rate:0.5 id))
    ids

let test_trace_ring () =
  let span name =
    Telemetry.Span.manual ~name ~start:0.0 ~elapsed:0.001 ()
  in
  let r = Telemetry.Trace.ring_create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (Telemetry.Trace.ring_capacity r);
  List.iter
    (fun i ->
      Telemetry.Trace.ring_add r
        ~trace_id:(Printf.sprintf "%016x" i)
        (span (Printf.sprintf "s%d" i)))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "bounded" 3 (Telemetry.Trace.ring_length r);
  Alcotest.(check bool) "oldest evicted" true
    (Telemetry.Trace.ring_find r (Printf.sprintf "%016x" 1) = None);
  (match Telemetry.Trace.ring_find r (Printf.sprintf "%016x" 5) with
  | Some e ->
    Alcotest.(check string) "newest retrievable" "s5"
      e.Telemetry.Trace.root.Telemetry.Span.name
  | None -> Alcotest.fail "newest trace missing");
  let recent = Telemetry.Trace.ring_recent r in
  Alcotest.(check (list string))
    "newest first"
    [ "5"; "4"; "3" ]
    (List.map
       (fun (e : Telemetry.Trace.entry) ->
         String.sub e.root.Telemetry.Span.name 1 1)
       recent);
  Alcotest.(check int) "n limits" 2
    (List.length (Telemetry.Trace.ring_recent ~n:2 r))

let test_histogram_exemplars () =
  with_telemetry @@ fun () ->
  let h = Telemetry.Metrics.histogram "test.exemplar.hist" in
  Telemetry.Metrics.observe ~exemplar:"aaaa000000000001" h 0.002;
  Telemetry.Metrics.observe h 0.002;
  (* unlabeled observation keeps the previous exemplar *)
  let snap () =
    match
      List.find_map
        (fun (s : Telemetry.Metrics.sample) ->
          if s.name = "test.exemplar.hist" then
            match s.data with
            | Telemetry.Metrics.Histogram_value hv -> Some hv
            | _ -> None
          else None)
        (Telemetry.Metrics.snapshot ())
    with
    | Some hv -> hv
    | None -> Alcotest.fail "histogram missing from snapshot"
  in
  let hv = snap () in
  let stored =
    Array.to_list hv.hs_exemplars
    |> List.filter_map (fun e ->
           Option.map (fun e -> e.Telemetry.Metrics.ex_label) e)
  in
  Alcotest.(check (list string)) "exemplar retained" [ "aaaa000000000001" ]
    stored;
  Telemetry.Metrics.observe ~exemplar:"aaaa000000000002" h 0.002;
  let stored' =
    Array.to_list (snap ()).hs_exemplars
    |> List.filter_map (fun e ->
           Option.map (fun e -> e.Telemetry.Metrics.ex_label) e)
  in
  Alcotest.(check (list string)) "newest wins per bucket"
    [ "aaaa000000000002" ] stored';
  Telemetry.Metrics.reset ();
  let cleared =
    Array.for_all (fun e -> e = None) (snap ()).hs_exemplars
  in
  Alcotest.(check bool) "reset clears exemplars" true cleared

let test_span_manual_and_leaf_elapsed () =
  let leaf name elapsed =
    Telemetry.Span.manual ~name ~start:0.0 ~elapsed ()
  in
  let (), roots =
    Telemetry.Span.collecting (fun () ->
        Telemetry.Span.with_ ~name:"root" (fun () ->
            Telemetry.Span.attach (leaf "queue_wait" 0.5);
            Telemetry.Span.with_ ~name:"mid" (fun () ->
                Telemetry.Span.attach (leaf "a" 0.25);
                Telemetry.Span.attach (leaf "b" 0.25))))
  in
  let root = List.hd roots in
  (* leaves: queue_wait, a, b — mid and root are interior *)
  Alcotest.(check (float 1e-4)) "leaf sum" 1.0
    (Telemetry.Span.leaf_elapsed root);
  Alcotest.(check int) "span count" 5 (Telemetry.Span.count root);
  (* self-time annotation: an interior span costing more than its
     children gains a "(self)" leaf with the difference, after which
     the leaves account for the whole attributed wall-clock *)
  let g = Telemetry.Span.manual ~name:"g" ~start:0.0 ~elapsed:2.0 () in
  let c = Telemetry.Span.manual ~name:"c" ~start:0.0 ~elapsed:0.5 () in
  let d = Telemetry.Span.manual ~name:"d" ~start:0.5 ~elapsed:0.25 () in
  c.Telemetry.Span.children <- [ d ];
  g.Telemetry.Span.children <- [ c ];
  Telemetry.Span.annotate_self g;
  Alcotest.(check int) "two self leaves inserted" 5 (Telemetry.Span.count g);
  Alcotest.(check (float 1e-9)) "leaves partition the root" 2.0
    (Telemetry.Span.leaf_elapsed g);
  (* idempotence is not required, but a childless span must never
     gain one *)
  let lone = Telemetry.Span.manual ~name:"lone" ~start:0.0 ~elapsed:1.0 () in
  Telemetry.Span.annotate_self lone;
  Alcotest.(check int) "leaf untouched" 1 (Telemetry.Span.count lone)

let test_metrics_json () =
  with_telemetry @@ fun () ->
  let c = Telemetry.Metrics.counter "test.json.counter" in
  Telemetry.Metrics.inc ~n:2 c;
  let json = Telemetry.Export.metrics_json () in
  Alcotest.(check bool) "counter entry" true
    (contains json "\"test.json.counter\":2")

let test_span_json () =
  let (), roots =
    Telemetry.Span.collecting (fun () ->
        Telemetry.Span.with_ ~name:"outer" (fun () ->
            Telemetry.Span.add_attr "q" "select 1";
            Telemetry.Span.with_ ~name:"inner" (fun () -> ())))
  in
  let json = Telemetry.Export.span_to_json (List.hd roots) in
  Alcotest.(check bool) "root name" true (contains json "\"name\":\"outer\"");
  Alcotest.(check bool) "nested child" true
    (contains json "\"children\":[{\"name\":\"inner\"");
  Alcotest.(check bool) "attr escaped into json" true
    (contains json "\"q\":\"select 1\"")

let test_json_escaping () =
  Alcotest.(check string) "quotes and newlines" "\"a\\\"b\\nc\""
    (Telemetry.Export.json_string "a\"b\nc");
  Alcotest.(check string) "nan is null" "null" (Telemetry.Export.json_float Float.nan)

(* ---- the shared timing helper ---- *)

let test_timing_stats () =
  let s = Telemetry.Timing.of_samples [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check int) "runs" 3 s.runs;
  Fixtures.check_float "min" 1.0 s.min;
  Fixtures.check_float "median" 2.0 s.median;
  Fixtures.check_float "max" 3.0 s.max

let test_time_runs () =
  let calls = ref 0 in
  let s = Telemetry.Timing.time_runs ~warmup:2 ~runs:5 (fun () -> incr calls) in
  Alcotest.(check int) "warmup + timed runs" 7 !calls;
  Alcotest.(check int) "stats runs" 5 s.runs;
  Alcotest.(check bool) "ordered" true (s.min <= s.median && s.median <= s.max);
  Alcotest.(check bool) "nonnegative" true (s.min >= 0.0)

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "concurrent domains lose nothing" `Quick
            test_concurrent_counters;
        ] );
      ( "spans",
        [
          Alcotest.test_case "disabled passthrough" `Quick
            test_span_disabled_passthrough;
          Alcotest.test_case "nesting and attrs" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "clean answers span tree" `Quick
            test_clean_answers_spans;
          Alcotest.test_case "allocation, no collection" `Quick
            test_span_words_no_gc;
          Alcotest.test_case "allocation, forced collection" `Quick
            test_span_words_forced_gc;
          Alcotest.test_case "allocation, natural collection" `Quick
            test_span_words_natural_gc;
        ] );
      ( "instrumentation",
        [ Alcotest.test_case "store counters" `Quick test_store_counters ] );
      ( "export",
        [
          Alcotest.test_case "prometheus dump" `Quick test_prometheus_dump;
          Alcotest.test_case "prometheus conformance" `Quick
            test_prometheus_conformance;
          Alcotest.test_case "metrics json" `Quick test_metrics_json;
          Alcotest.test_case "span json" `Quick test_span_json;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "seeded trace-id stream" `Quick
            test_trace_ids_deterministic;
          Alcotest.test_case "sampling is pure and calibrated" `Quick
            test_trace_sampling;
          Alcotest.test_case "trace ring bounds and lookup" `Quick
            test_trace_ring;
          Alcotest.test_case "histogram exemplars" `Quick
            test_histogram_exemplars;
          Alcotest.test_case "manual spans and leaf coverage" `Quick
            test_span_manual_and_leaf_elapsed;
        ] );
      ( "timing",
        [
          Alcotest.test_case "stats of samples" `Quick test_timing_stats;
          Alcotest.test_case "time_runs" `Quick test_time_runs;
        ] );
    ]
