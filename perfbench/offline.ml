(* offline-prepare: the paper's Figure 7.  One caller repeats the
   offline preparation of a dirty store: identifier propagation,
   probability assignment (Section 4), a full store save, and the
   load + session build a server does before answering.  Input is
   sf 2 with inconsistency factor 5.  No queries run. *)

open Util

let sf = 2.0
let inconsistency = 5
let setup_reps = 5
let min_passes = 4

let run ~seed ~seconds ~trace =
  let tmp = fresh_temp_dir "offline-prepare" in
  let raw_dir = Filename.concat tmp "raw" in
  generate ~sf ~inconsistency ~seed raw_dir;
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  (* set-up: load the raw (not yet prepared) store, several times *)
  let raw = ref None and loads = ref [] in
  for _ = 1 to setup_reps do
    raw := None;
    Gc.full_major ();
    let db, t = timed (fun () -> Dirty.Store.load raw_dir) in
    raw := Some db;
    loads := t :: !loads
  done;
  let raw = Option.get !raw in
  let rows = Tpch.Datagen.total_rows raw in
  let first_digests = ref None in
  let passes = ref 0 and traced_passes = ref [] and plain_passes = ref [] in
  let bytes_per_row = ref [] and warnings = ref 0 in
  (* pass 0 warms the heap and the page cache: its gates run, its times
     are dropped, and the clock starts after it *)
  let t_start = ref infinity in
  while !passes <= min_passes || now () -. !t_start < seconds do
    let pass = !passes in
    Gc.full_major ();
    (* in a traced run every other pass records spans, so the two
       kinds of pass give the tracing overhead *)
    let traced = trace && pass > 0 && pass mod 2 = 0 in
    let step name f =
      if traced then Spans.time ~trace:pass ~parent:(-1) name f else timed f
    in
    let prop, t1 = step "tpch.propagate" (fun () -> Tpch.Datagen.propagate_all raw) in
    let db, t2 =
      step "prob.assign" (fun () -> Tpch.Datagen.assign_probabilities prop)
    in
    let dir = Filename.concat tmp (Printf.sprintf "pass%d" pass) in
    let (), t3 = step "dirty.store.save" (fun () -> Dirty.Store.save dir db) in
    let loaded, t4 = step "dirty.store.load" (fun () -> Dirty.Store.load dir) in
    let _, t5 =
      step "conquer.session_create" (fun () -> Conquer.Clean.create loaded)
    in
    let total = t1 +. t2 +. t3 +. t4 +. t5 in
    if pass = 0 then t_start := now ()
    else if traced then traced_passes := total :: !traced_passes
    else plain_passes := total :: !plain_passes;
    (* gates, outside the timed steps *)
    let diagnostics = Dirty.Validate.db_diagnostics db in
    List.iter
      (fun d ->
        match Dirty.Validate.severity d with
        | Dirty.Validate.Error -> fail ("validate: " ^ Dirty.Validate.to_string d)
        | Dirty.Validate.Warning -> incr warnings)
      diagnostics;
    let saved = db_digests db in
    if db_digests loaded <> saved then
      fail (Printf.sprintf "pass %d: load (save db) changed row counts or cells" pass);
    (match !first_digests with
    | None -> first_digests := Some saved
    | Some d when d <> saved ->
      fail (Printf.sprintf "pass %d: preparation is not deterministic" pass)
    | Some _ -> ());
    bytes_per_row := float_of_int (dir_bytes dir) /. float_of_int rows :: !bytes_per_row;
    rm_rf dir;
    incr passes
  done;
  let peak = peak_rss_mb None in
  let timed_passes = if trace then !plain_passes @ !traced_passes else !plain_passes in
  let pass_ms = Metric.of_samples "prepare_pass_ms" "ms" Lower (List.map ms timed_passes) in
  let rate =
    Metric.of_samples "prepare_rows_per_s" "1/s" Higher
      (List.map (fun s -> float_of_int rows /. s) timed_passes)
  in
  let setup = Metric.of_samples "setup_s" "s" Lower !loads in
  let rss = Metric.scalar "peak_rss_mb" "MB" Lower peak in
  let layers =
    if not trace then []
    else
      let n = List.length !traced_passes in
      let span_ms name =
        Metric.scalar ~n name "ms" Lower
          (ms (Metric.median (Spans.per_trace (fun s -> s.Spans.name = name))))
      in
      let untraced = Metric.median !plain_passes in
      [
        Metric.rename "tpch.propagate_ms" (span_ms "tpch.propagate");
        Metric.rename "prob.assign_ms" (span_ms "prob.assign");
        Metric.rename "dirty.store.save_ms" (span_ms "dirty.store.save");
        Metric.rename "dirty.store.load_ms" (span_ms "dirty.store.load");
        Metric.rename "conquer.session_create_ms" (span_ms "conquer.session_create");
        Metric.of_samples "dirty.store.bytes_per_row" "bytes" Lower !bytes_per_row;
        Metric.scalar ~n "trace.overhead_pct" "%" Lower
          ((Metric.median !traced_passes -. untraced) /. untraced *. 100.0);
      ]
  in
  {
    Metric.report =
      [
        setup;
        rss;
        pass_ms;
        rate;
        Metric.scalar "input_rows" "count" Higher (float_of_int rows);
        Metric.scalar ~n:!passes "validate_warnings" "count" Lower
          (float_of_int !warnings);
      ];
    e2e =
      [ setup; rss; Metric.rename "latency_ms" pass_ms; Metric.rename "throughput_per_s" rate ];
    layers;
    attempted = !passes;
    failed = 0;
    failures = List.rev !failures;
  }
