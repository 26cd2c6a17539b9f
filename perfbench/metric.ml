(* Typed measurements: every reported number carries its unit, the
   direction that is better, and the number of samples behind it, so
   a ratio or a rate is never stored as a time. *)

type better = Lower | Higher

type t = {
  name : string;
  unit_ : string;
  better : better;
  value : float;  (** the median of the samples, or the scalar measured *)
  q1 : float;
  q3 : float;
  n : int;  (** samples summarized by [value] *)
}

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* linear interpolation between the closest ranks of a sorted array *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile (sorted xs) 0.5
let percentile xs p = quantile (sorted xs) (p /. 100.0)

let geomean xs =
  exp
    (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
    /. float_of_int (List.length xs))

let of_samples name unit_ better xs =
  let a = sorted xs in
  {
    name;
    unit_;
    better;
    value = quantile a 0.5;
    q1 = quantile a 0.25;
    q3 = quantile a 0.75;
    n = Array.length a;
  }

let scalar ?(n = 1) name unit_ better v =
  { name; unit_; better; value = v; q1 = v; q3 = v; n }

let rename name m = { m with name }
let better_string = function Lower -> "lower" | Higher -> "higher"

let pp_line m =
  Printf.sprintf "  %-34s %14.6g %-6s better=%-6s q1=%.6g q3=%.6g n=%d" m.name
    m.value m.unit_ (better_string m.better) m.q1 m.q3 m.n

(* ---- the metric names the benchmark publishes ---- *)

(* One set for every workload (BENCHMARK.json lists them); README.md
   says what each means on each workload. *)
let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("peak_rss_mb", "MB", Lower);
    ("latency_ms", "ms", Lower);
    ("throughput_per_s", "1/s", Higher);
  ]

let query_layers =
  List.concat_map
    (fun (q : Tpch.Queries.query) ->
      [
        (Printf.sprintf "engine.exec.q%02d.rewritten_ms" q.qid, "ms", Lower);
        (Printf.sprintf "engine.exec.q%02d.original_ms" q.qid, "ms", Lower);
      ])
    Tpch.Queries.all

(* Per-layer metrics of the traced run.  A workload that never enters
   a layer reports 0 for it. *)
let per_layer =
  [
    ("sql.parse_ms", "ms", Lower);
    ("conquer.rewrite_ms", "ms", Lower);
    ("engine.plan_ms", "ms", Lower);
    ("engine.exec_ms.rewritten", "ms", Lower);
    ("engine.exec_ms.original", "ms", Lower);
  ]
  @ query_layers
  @ [
      ("dirty.store.load_ms", "ms", Lower);
      ("conquer.session_create_ms", "ms", Lower);
      ("gc.minor_words_per_pass", "count", Lower);
      ("engine.answer_rows", "count", Lower);
      ("trace.coverage", "ratio", Higher);
      ("trace.overhead_pct", "%", Lower);
      ("server.hit_p50_ms", "ms", Lower);
      ("server.wire_ms", "ms", Lower);
      ("server.miss_p50_ms", "ms", Lower);
      ("server.miss_p99_ms", "ms", Lower);
      ("engine.query_s_per_miss", "s", Lower);
      ("server.cache_hit_ratio", "ratio", Higher);
      ("update.delta_apply_ms", "ms", Lower);
      ("update.commit_ms", "ms", Lower);
      ("update.session_rebuild_ms", "ms", Lower);
      ("dirty.store.bytes_written_per_update", "bytes", Lower);
      ("dirty.store.compactions", "count", Lower);
      ("server.shed", "count", Lower);
      ("server.partial", "count", Lower);
      ("server.internal_errors", "count", Lower);
      ("tpch.propagate_ms", "ms", Lower);
      ("prob.assign_ms", "ms", Lower);
      ("dirty.store.save_ms", "ms", Lower);
      ("dirty.store.bytes_per_row", "bytes", Lower);
    ]

(* what a workload hands back to main.ml *)
type outcome = {
  report : t list;  (** every metric the workload measures, README names *)
  e2e : t list;  (** [end_to_end], under the shared names *)
  layers : t list;  (** per-layer metrics; empty unless traced *)
  attempted : int;
  failed : int;
  failures : string list;  (** violated correctness gates *)
}
