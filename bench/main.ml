(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5) plus the qualitative tables of
   Section 4, and runs the ablations called out in DESIGN.md.

   Usage:
     main.exe                  run every report, then the bechamel pass
     main.exe --report NAME    run one report (see --list)
     main.exe --no-bechamel    skip the bechamel statistical pass
     main.exe --quick          smaller data sizes (CI-friendly)
     main.exe --json FILE      write the machine-readable summary to FILE
     main.exe --list           list report names

   Besides the human-readable tables, every timed measurement is
   recorded (min/median/max over the runs) and dumped together with a
   telemetry metrics snapshot as one JSON file, BENCH_<n>.json in the
   working directory — <n> is the first integer >= 2 whose file does
   not exist yet, so successive runs never clobber each other. *)

module Value = Dirty.Value
module Relation = Dirty.Relation
module Schema = Dirty.Schema
module Cluster = Dirty.Cluster
module Dirty_db = Dirty.Dirty_db

(* ------------------------------------------------------------------ *)
(* timing helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Measurement is Telemetry.Timing — the same helper the CLI's
   [profile] subcommand uses.  Every named sample is kept (with its
   full min/median/max spread) and written to BENCH_<n>.json at the
   end of the run, tagged with the report it came from. *)

let current_report = ref "startup"
let samples : (string * string * Telemetry.Timing.stats) list ref = ref []

let record name stats = samples := (!current_report, name, stats) :: !samples

let time_once ?name f =
  let t, result = Telemetry.Timing.time_once f in
  Option.iter (fun n -> record n (Telemetry.Timing.singleton t)) name;
  (t, result)

(* median wall-clock over [runs] executions after one warmup; the
   spread behind the median lands in BENCH_<n>.json under [name] *)
let time_runs ?runs ~name f =
  let stats = Telemetry.Timing.time_runs ?runs f in
  record name stats;
  stats.median

let ms t = t *. 1000.0

let section title = Printf.printf "\n=== %s ===\n%!" title
let note fmt = Printf.printf ("    " ^^ fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let quick = ref false

let bench_sf () = if !quick then 0.1 else 0.5

(* The Figure 2 running-example database. *)
let figure2_db () =
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
    Dirty_db.add_table Dirty_db.empty
      (Dirty_db.make_table ~name:"orders" ~id_attr:"id" ~prob_attr:"prob" orders)
  in
  Dirty_db.add_table db
    (Dirty_db.make_table ~name:"customer" ~id_attr:"id" ~prob_attr:"prob" customer)

(* The Section 4 customer relation (Figure 6). *)
let section4_customer () =
  let v_s s = Value.String s in
  Relation.create
    (Schema.make
       [
         ("name", Value.TString); ("mktsegment", Value.TString);
         ("nation", Value.TString); ("address", Value.TString);
         ("cluster", Value.TString);
       ])
    [
      [| v_s "Mary"; v_s "building"; v_s "USA"; v_s "Jones Ave"; v_s "c1" |];
      [| v_s "Mary"; v_s "banking"; v_s "USA"; v_s "Jones Ave"; v_s "c1" |];
      [| v_s "Marion"; v_s "banking"; v_s "USA"; v_s "Jones ave"; v_s "c1" |];
      [| v_s "John"; v_s "building"; v_s "America"; v_s "Arrow"; v_s "c2" |];
      [| v_s "John S."; v_s "building"; v_s "USA"; v_s "Arrow"; v_s "c2" |];
      [| v_s "John"; v_s "banking"; v_s "Canada"; v_s "Baldwin"; v_s "c3" |];
    ]

let section4_attrs = [ "name"; "mktsegment"; "nation"; "address" ]

let tpch_db ~sf ~inconsistency =
  Tpch.Datagen.generate { Tpch.Datagen.default with sf; inconsistency }

(* ------------------------------------------------------------------ *)
(* report: the running example (Figures 1-3, Examples 2-7)             *)
(* ------------------------------------------------------------------ *)

let report_example () =
  section "Running example (Figures 1-3, Examples 2-7)";
  let db = figure2_db () in
  let s = Conquer.Clean.create db in
  Printf.printf "candidate databases: %.0f (paper: 8)\n"
    (Conquer.Candidates.count db);
  let probs =
    Conquer.Candidates.fold db (fun acc _ p -> p :: acc) []
    |> List.sort (fun a b -> Float.compare b a)
  in
  Printf.printf "candidate probabilities: %s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.2f") probs));
  note "paper (Example 3): 0.28 x2, 0.12 x2, 0.07 x2, 0.03 x2";
  let show name sql expect =
    let answers = Conquer.Clean.answers s sql in
    Printf.printf "%s clean answers:\n%s" name (Relation.to_string answers);
    note "paper: %s" expect
  in
  show "q1" "select id from customer c where balance > 10000"
    "(c1, 1.0), (c2, 0.2)  [Example 4]";
  show "q2"
    "select o.id, c.id from orders o, customer c \
     where o.cidfk = c.id and c.balance > 10000"
    "(o1,c1,1.0), (o2,c1,0.5), (o2,c2,0.1)  [Example 6]";
  (* Example 7: the query outside the rewritable class *)
  let q3 =
    "select c.id from orders o, customer c \
     where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000"
  in
  (match Conquer.Clean.check s q3 with
  | Ok _ -> ()
  | Error vs ->
    Printf.printf "q3 rejected by the rewritable-class check:\n";
    List.iter
      (fun v -> Printf.printf "  - %s\n" (Conquer.Rewritable.violation_to_string v))
      vs);
  let naive = Conquer.Clean.answers_unchecked s q3 in
  let oracle = Conquer.Candidates.clean_answers db (Sql.Parser.parse_query q3) in
  Printf.printf "q3 naive grouping-and-summing (incorrect):\n%s"
    (Relation.to_string naive);
  Printf.printf "q3 possible-worlds truth:\n%s" (Relation.to_string oracle);
  note "paper (Example 7): naive returns (c1, 0.45); the truth is (c1, 0.3)"

(* ------------------------------------------------------------------ *)
(* reports: Tables 1-3 (Section 4 walkthrough)                         *)
(* ------------------------------------------------------------------ *)

let report_table1 () =
  section "Table 1: the normalized customer matrix";
  let rel = section4_customer () in
  let m = Prob.Matrix.of_relation ~attrs:section4_attrs rel in
  let interning = Prob.Matrix.interning m in
  let num_syms = Prob.Interning.size interning in
  Printf.printf "%-4s" "";
  for sym = 0 to num_syms - 1 do
    Printf.printf " %10s"
      (Value.to_string (Prob.Interning.value_of interning sym))
  done;
  print_newline ();
  for row = 0 to Prob.Matrix.num_rows m - 1 do
    Printf.printf "t%-3d" (row + 1);
    let dist = Prob.Matrix.row_dist m row in
    for sym = 0 to num_syms - 1 do
      Printf.printf " %10.2f" (Infotheory.Dist.prob dist sym)
    done;
    print_newline ()
  done;
  note "paper: each tuple row is uniform 0.25 over its four values"

let report_table2 () =
  section "Table 2: the three cluster representatives";
  let rel = section4_customer () in
  let m = Prob.Matrix.of_relation ~attrs:section4_attrs rel in
  let clustering = Cluster.of_relation rel ~id_attr:"cluster" in
  let reps = Prob.Representative.all m clustering in
  Format.printf "%a" (Prob.Representative.pp_table m) reps;
  note "paper: rep1 = (Mary .167, Marion .083, banking .167, building .083,";
  note "        USA .25, Jones Ave .167, Jones ave .083); rep2 has building/Arrow .25;";
  note "        rep3 is t6 with every value .25"

let report_table3 () =
  section "Table 3: distances, similarities and probabilities";
  let rel = section4_customer () in
  let clustering = Cluster.of_relation rel ~id_attr:"cluster" in
  let r = Prob.Assign.run ~attrs:section4_attrs rel clustering in
  Printf.printf "%-4s %-6s %12s %12s %12s\n" "" "rep" "d(t,rep)" "s_t" "p(t)";
  for i = 0 to Array.length r.probabilities - 1 do
    let rep = Value.to_string (Cluster.cluster_of_row clustering i) in
    Printf.printf "t%-3d %-6s %12.4f %12.4f %12.4f\n" (i + 1)
      ("rep" ^ String.sub rep 1 (String.length rep - 1))
      r.distances.(i) r.similarities.(i) r.probabilities.(i)
  done;
  note "paper: within c1, t2 is the most probable tuple; t4 = t5 = 0.5;";
  note "        t6 = 1.0 (singleton cluster); probabilities sum to 1 per cluster"

(* ------------------------------------------------------------------ *)
(* report: Table 4 (Cora qualitative study)                            *)
(* ------------------------------------------------------------------ *)

let report_table4 () =
  section "Table 4: Cora-style citation cluster ranking";
  let g = Tpch.Cora.generate Tpch.Cora.default in
  let ranking = Tpch.Cora.ranking g in
  let describe i =
    if Some i = g.foreign_row then "mis-clustered (different publication)"
    else if List.mem i g.variant_rows then "format variant"
    else "canonical"
  in
  let show_row (i, p) =
    let row = Relation.get g.relation i in
    let fields =
      String.concat " | "
        (List.map
           (fun a -> Value.to_string (Relation.value g.relation row a))
           g.attrs)
    in
    Printf.printf "  p=%.5f [%s]\n    %s\n" p (describe i) fields
  in
  let top = List.filteri (fun i _ -> i < 2) ranking in
  let n = List.length ranking in
  let bottom = List.filteri (fun i _ -> i >= n - 2) ranking in
  Printf.printf "top-2 tuples (cluster of %d):\n" n;
  List.iter show_row top;
  Printf.printf "bottom-2 tuples:\n";
  List.iter show_row bottom;
  note "paper: the most likely tuples carry the cluster's most frequent values;";
  note "        the least likely corresponds to a different publication"

(* ------------------------------------------------------------------ *)
(* report: Figure 7 (offline probability computation)                  *)
(* ------------------------------------------------------------------ *)

let report_fig7 () =
  section
    "Figure 7: offline times for lineitem (propagation, probabilities, scan)";
  let sf = bench_sf () in
  Printf.printf "%-6s %10s %14s %18s %14s %10s\n" "if" "rows" "propagation"
    "probability calc" "linear scan" "clusters";
  List.iter
    (fun inconsistency ->
      let db = tpch_db ~sf ~inconsistency in
      let lineitem = Dirty_db.find_table db "lineitem" in
      let rows = Relation.cardinality lineitem.relation in
      let t_prop =
        time_runs
          ~name:(Printf.sprintf "if%d/propagation" inconsistency)
          (fun () -> Tpch.Datagen.propagate_all db)
      in
      let t_assign =
        time_runs
          ~name:(Printf.sprintf "if%d/assign" inconsistency)
          (fun () -> Prob.Assign.annotate_table lineitem)
      in
      let t_scan =
        time_runs
          ~name:(Printf.sprintf "if%d/scan" inconsistency)
          (fun () ->
            Relation.fold (fun acc row -> acc + Array.length row) 0
              lineitem.relation)
      in
      Printf.printf "%-6d %10d %12.1fms %16.1fms %12.1fms %10d\n" inconsistency
        rows (ms t_prop) (ms t_assign) (ms t_scan)
        (Cluster.num_clusters lineitem.clustering))
    [ 1; 2; 5; 25 ];
  note "paper shape: propagation flat across if (size-driven only);";
  note "        probability computation grows with if; both are offline-friendly";
  note "        (under 30 min at 1GB in the paper; milliseconds at this scale)"

(* ------------------------------------------------------------------ *)
(* report: Figure 8 (original vs rewritten, 13 queries)                *)
(* ------------------------------------------------------------------ *)

let report_fig8 () =
  section "Figure 8: original vs rewritten query times (sf bench unit, if = 3)";
  let db = tpch_db ~sf:(bench_sf ()) ~inconsistency:3 in
  let s = Conquer.Clean.create db in
  Printf.printf "database rows: %d\n" (Tpch.Datagen.total_rows db);
  Printf.printf "%-5s %14s %14s %8s\n" "query" "original" "rewritten" "ratio";
  let worst = ref (0, 0.0) in
  List.iter
    (fun (q : Tpch.Queries.query) ->
      let t_orig =
        time_runs
          ~name:(Printf.sprintf "q%02d-original" q.qid)
          (fun () -> Conquer.Clean.original s q.sql)
      in
      let t_rew =
        time_runs
          ~name:(Printf.sprintf "q%02d-rewritten" q.qid)
          (fun () -> Conquer.Clean.answers s q.sql)
      in
      let ratio = if t_orig > 0.0 then t_rew /. t_orig else 1.0 in
      if ratio > snd !worst then worst := (q.qid, ratio);
      Printf.printf "Q%-4d %12.2fms %12.2fms %8.2f\n" q.qid (ms t_orig)
        (ms t_rew) ratio)
    Tpch.Queries.all;
  let qid, ratio = !worst in
  Printf.printf "worst overhead: Q%d at %.2fx\n" qid ratio;
  note "paper shape: rewriting is cheap — all queries within 1.5x of the";
  note "        original except Q9 (six joins, high selectivity) at about 1.8x"

(* ------------------------------------------------------------------ *)
(* report: Figure 9 (query 3 vs cluster size)                          *)
(* ------------------------------------------------------------------ *)

let report_fig9 () =
  section "Figure 9: query 3 vs tuples per cluster (sf bench unit)";
  let q3 = (Tpch.Queries.find 3).sql in
  let q3_nob = Tpch.Queries.q3_no_order_by.sql in
  Printf.printf "%-4s %12s %12s %16s %16s\n" "if" "orig" "rewritten"
    "orig w/o ORDER" "rew w/o ORDER";
  List.iter
    (fun inconsistency ->
      let db = tpch_db ~sf:(bench_sf ()) ~inconsistency in
      let s = Conquer.Clean.create db in
      let name suffix = Printf.sprintf "if%d/%s" inconsistency suffix in
      let t_orig =
        time_runs ~name:(name "original") (fun () -> Conquer.Clean.original s q3)
      in
      let t_rew =
        time_runs ~name:(name "rewritten") (fun () -> Conquer.Clean.answers s q3)
      in
      let t_orig_nob =
        time_runs
          ~name:(name "original-no-order-by")
          (fun () -> Conquer.Clean.original s q3_nob)
      in
      let t_rew_nob =
        time_runs
          ~name:(name "rewritten-no-order-by")
          (fun () -> Conquer.Clean.answers s q3_nob)
      in
      Printf.printf "%-4d %10.2fms %10.2fms %14.2fms %14.2fms\n" inconsistency
        (ms t_orig) (ms t_rew) (ms t_orig_nob) (ms t_rew_nob))
    [ 1; 2; 3; 4; 5 ];
  note "paper shape: with ORDER BY both queries slow down as clusters grow";
  note "        (larger result sets); without it the original is flat while the";
  note "        rewritten one still pays for its extra grouping"

(* ------------------------------------------------------------------ *)
(* report: Figure 10 (scalability with database size)                  *)
(* ------------------------------------------------------------------ *)

let report_fig10 () =
  section "Figure 10: rewritten query time vs database size (if = 3)";
  let sfs = if !quick then [ 0.05; 0.1; 0.2 ] else [ 0.1; 0.5; 1.0; 2.0 ] in
  let sessions =
    List.map
      (fun sf ->
        let db = tpch_db ~sf ~inconsistency:3 in
        (sf, Tpch.Datagen.total_rows db, Conquer.Clean.create db))
      sfs
  in
  Printf.printf "%-5s" "query";
  List.iter
    (fun (sf, rows, _) -> Printf.printf " %12s" (Printf.sprintf "sf=%g(%d)" sf rows))
    sessions;
  print_newline ();
  List.iter
    (fun (q : Tpch.Queries.query) ->
      Printf.printf "Q%-4d" q.qid;
      List.iter
        (fun (sf, _, s) ->
          let t =
            time_runs
              ~name:(Printf.sprintf "q%02d/sf%g" q.qid sf)
              (fun () -> Conquer.Clean.answers s q.sql)
          in
          Printf.printf " %10.1fms" (ms t))
        sessions;
      print_newline ())
    Tpch.Queries.all;
  note "paper shape: running times grow roughly linearly with database size"

(* ------------------------------------------------------------------ *)
(* ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* rewriting vs the exponential possible-worlds oracle *)
let report_ablation_oracle () =
  section "Ablation: RewriteClean vs possible-worlds enumeration";
  let v_i i = Value.Int i and v_f f = Value.Float f in
  let make_db clusters =
    let rows =
      List.concat
        (List.init clusters (fun e ->
             [
               [| v_i e; v_i (e mod 7); v_f 0.6 |];
               [| v_i e; v_i ((e + 1) mod 7); v_f 0.4 |];
             ]))
    in
    let rel =
      Relation.create
        (Schema.make
           [ ("id", Value.TInt); ("val", Value.TInt); ("prob", Value.TFloat) ])
        rows
    in
    Dirty_db.add_table Dirty_db.empty
      (Dirty_db.make_table ~name:"t" ~id_attr:"id" ~prob_attr:"prob" rel)
  in
  let sql = "select id from t where val < 4" in
  Printf.printf "%-9s %12s %14s %14s\n" "clusters" "candidates" "rewriting"
    "oracle";
  List.iter
    (fun clusters ->
      let db = make_db clusters in
      let s = Conquer.Clean.create db in
      let candidates = Conquer.Candidates.count db in
      let t_rew =
        time_runs
          ~name:(Printf.sprintf "%d-clusters/rewriting" clusters)
          (fun () -> Conquer.Clean.answers s sql)
      in
      let t_oracle =
        if candidates <= 70_000.0 then
          Printf.sprintf "%10.2fms"
            (ms
               (time_runs ~runs:1
                  ~name:(Printf.sprintf "%d-clusters/oracle" clusters)
                  (fun () ->
                    Conquer.Candidates.clean_answers ~max_candidates:100_000 db
                      (Sql.Parser.parse_query sql))))
        else "  infeasible"
      in
      Printf.printf "%-9d %12.0f %12.2fms %14s\n" clusters candidates (ms t_rew)
        t_oracle)
    [ 2; 4; 8; 12; 16; 24 ];
  note "the oracle is exponential in the number of clusters; the rewriting is";
  note "        a single grouped query — this is why Section 3 exists"

(* exclusive (clean answers) vs independent tuples *)
let report_ablation_independent () =
  section "Ablation: exclusive duplicates vs independent tuples (Section 1)";
  let db = figure2_db () in
  let sql = "select id from customer where balance > 10000" in
  let q = Sql.Parser.parse_query sql in
  let exclusive = Conquer.Candidates.clean_answers db q in
  let independent = Conquer.Independent.answers db q in
  Printf.printf "query: %s\n" sql;
  Printf.printf "exclusive duplicate semantics (this paper):\n%s"
    (Relation.to_string exclusive);
  Printf.printf "independent-tuple semantics (Dalvi-Suciu style):\n%s"
    (Relation.to_string independent);
  note "with exclusivity, duplicate customer c1 is certain (one of its two";
  note "        representations must be clean: p = 1.0); independence gives";
  note "        1 - (1-0.7)(1-0.3) = 0.79 — the wrong semantics for duplicates"

(* information-loss vs edit-distance probability assignment *)
let report_ablation_distance () =
  section "Ablation: information-loss vs string-edit-distance assignment";
  let rel = section4_customer () in
  let clustering = Cluster.of_relation rel ~id_attr:"cluster" in
  let info = Prob.Assign.run ~attrs:section4_attrs rel clustering in
  let edit =
    Prob.Assign.run ~distance:Prob.Assign.Edit_distance ~attrs:section4_attrs
      rel clustering
  in
  Printf.printf "%-4s %18s %18s\n" "" "information loss" "edit distance";
  for i = 0 to Array.length info.probabilities - 1 do
    Printf.printf "t%-3d %18.4f %18.4f\n" (i + 1) info.probabilities.(i)
      edit.probabilities.(i)
  done;
  note "both are valid distance plug-ins for Figure 5; information loss";
  note "        rewards value-frequency agreement, edit distance surface";
  note "        similarity (the paper defaults to information loss for";
  note "        categorical data)"

(* offline survivorship vs clean answers *)
let report_ablation_survivorship () =
  section "Ablation: offline survivorship resolution vs clean answers";
  let db = tpch_db ~sf:(bench_sf ()) ~inconsistency:3 in
  let clean_session = Conquer.Clean.create db in
  let resolved_best = Conquer.Clean.create (Prob.Resolve.resolve db) in
  let resolved_merge =
    Conquer.Clean.create (Prob.Resolve.resolve ~policy:Prob.Resolve.Merge db)
  in
  Printf.printf "%-5s %14s %18s %14s %14s\n" "query" "clean answers"
    "certain (p=1)" "best-tuple" "merged";
  List.iter
    (fun qid ->
      let q = Tpch.Queries.find qid in
      let clean = Conquer.Clean.answers clean_session q.sql in
      let certain = Conquer.Clean.consistent_answers clean_session q.sql in
      let best = Conquer.Clean.original resolved_best q.sql in
      let merged = Conquer.Clean.original resolved_merge q.sql in
      Printf.printf "Q%-4d %14d %18d %14d %14d\n" qid
        (Relation.cardinality clean)
        (Relation.cardinality certain)
        (Relation.cardinality best)
        (Relation.cardinality merged))
    [ 3; 6; 10; 12; 18 ];
  note "survivorship commits to one representation per entity before";
  note "        querying: it returns roughly the certain answers and drops";
  note "        the possible-but-uncertain ones that clean answers keep,";
  note "        ranked by probability — the introduction's card-111 effect"

(* identifier indexes on/off *)
let report_ablation_index () =
  section "Ablation: identifier indexes on vs off";
  let db = tpch_db ~sf:(bench_sf ()) ~inconsistency:3 in
  let with_idx = Conquer.Clean.create db in
  let without_idx = Conquer.Clean.create ~index_identifiers:false db in
  Printf.printf "%-5s %16s %16s\n" "query" "indexed" "no indexes";
  List.iter
    (fun qid ->
      let q = Tpch.Queries.find qid in
      let t_with =
        time_runs
          ~name:(Printf.sprintf "q%02d-indexed" qid)
          (fun () -> Conquer.Clean.answers with_idx q.sql)
      in
      let t_without =
        time_runs
          ~name:(Printf.sprintf "q%02d-no-indexes" qid)
          (fun () -> Conquer.Clean.answers without_idx q.sql)
      in
      Printf.printf "Q%-4d %14.2fms %14.2fms\n" qid (ms t_with) (ms t_without))
    [ 3; 9; 10 ];
  note "the paper creates indexes on the identifiers before timing;";
  note "        index joins probe them instead of building transient hash tables"

(* ------------------------------------------------------------------ *)
(* extensions (the paper's future work, DESIGN.md §5)                  *)
(* ------------------------------------------------------------------ *)

(* expected aggregates: grouping/aggregation over dirty data *)
let report_ext_expected () =
  section "Extension: expected aggregates (the paper's named future work)";
  let db = tpch_db ~sf:(bench_sf ()) ~inconsistency:3 in
  let s = Conquer.Clean.create db in
  let show key name sql =
    let t = time_runs ~name:key (fun () -> Conquer.Expected.answers s sql) in
    let r = Conquer.Expected.answers s sql in
    Printf.printf "%s (%d groups, %.2f ms):\n" name (Relation.cardinality r)
      (ms t);
    print_string (Relation.to_string ~max_rows:6 r)
  in
  show "q01-aggregates" "Q1 with its aggregates restored"
    "select l_returnflag, l_linestatus, sum(l_quantity), \
     sum(l_extendedprice), count(*) from lineitem \
     where l_shipdate <= date '1998-09-02' \
     group by l_returnflag, l_linestatus \
     order by l_returnflag, l_linestatus";
  show "q06-revenue" "Q6 revenue"
    "select sum(l_extendedprice * l_discount) from lineitem \
     where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' \
     and l_discount between 0.05 and 0.07 and l_quantity < 24";
  note "E[SUM]/E[COUNT] are exact by linearity of expectation — even for";
  note "        SPJ cores outside the Dfn 7 class (see Expected's docs);";
  note "        verified against the possible-worlds oracle in the tests"

(* tuple matching quality on generated duplicates *)
let report_ext_matcher () =
  section "Extension: tuple-matcher quality on generated duplicates";
  let db =
    Tpch.Datagen.generate
      { Tpch.Datagen.default with sf = bench_sf (); inconsistency = 3; seed = 5 }
  in
  let customer = Dirty_db.find_table db "customer" in
  Printf.printf "customer: %d rows, %d true entities\n"
    (Relation.cardinality customer.relation)
    (Cluster.num_clusters customer.clustering);
  Printf.printf "%-10s %-7s %10s %8s %8s %8s %10s\n" "threshold" "window"
    "pairs" "prec" "recall" "f1" "time";
  List.iter
    (fun (threshold, window) ->
      let config =
        {
          Matcher.Sorted_neighborhood.passes =
            [
              Matcher.Sorted_neighborhood.pass [ "c_name" ];
              Matcher.Sorted_neighborhood.pass [ "c_address" ];
              Matcher.Sorted_neighborhood.pass [ "c_phone" ];
            ];
          window;
          threshold;
          attrs = [ "c_name"; "c_address"; "c_phone"; "c_acctbal" ];
        }
      in
      let t, predicted =
        time_once
          ~name:(Printf.sprintf "sorted-neighborhood-t%.2f-w%d" threshold window)
          (fun () -> Matcher.Sorted_neighborhood.run config customer.relation)
      in
      let scores = Matcher.Evaluate.pairwise ~truth:customer.clustering predicted in
      Printf.printf "%-10.2f %-7d %10d %8.3f %8.3f %8.3f %8.1fms\n" threshold
        window
        (Matcher.Sorted_neighborhood.pairs_compared config customer.relation)
        scores.precision scores.recall scores.f1 (ms t))
    [ (0.6, 8); (0.72, 8); (0.72, 16); (0.85, 8) ];
  (* LIMBO on a small block *)
  let small =
    Relation.of_array
      (Relation.schema customer.relation)
      (Array.sub (Relation.rows customer.relation) 0
         (min 60 (Relation.cardinality customer.relation)))
  in
  let truth_small = Cluster.of_relation small ~id_attr:"c_custkey" in
  let t, predicted =
    time_once ~name:"limbo-block" (fun () ->
        Matcher.Limbo.run
          {
            attrs = [ "c_name"; "c_address"; "c_phone" ];
            stop = Num_clusters (Cluster.num_clusters truth_small);
          }
          small)
  in
  let scores = Matcher.Evaluate.pairwise ~truth:truth_small predicted in
  Printf.printf
    "LIMBO (agglomerative, %d-row block): precision %.3f recall %.3f f1 %.3f \
     (%.1f ms)\n"
    (Relation.cardinality small) scores.precision scores.recall scores.f1 (ms t);
  note "sorted-neighborhood blocking keeps comparisons near-linear in n;";
  note "        precision/recall trade off along the threshold, as in the";
  note "        merge/purge literature the paper builds its generator on"

(* Monte-Carlo sampling for non-rewritable queries *)
let report_ext_sampler () =
  section "Extension: Monte-Carlo clean answers for non-rewritable queries";
  let db = figure2_db () in
  let s = Conquer.Clean.create db in
  let q3 =
    "select c.id from orders o, customer c \
     where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000"
  in
  Printf.printf "query (Example 7, outside the rewritable class): %s\n" q3;
  Printf.printf "true clean answer (oracle): (c1, 0.3)\n";
  Printf.printf "%-9s %12s %12s %10s\n" "samples" "estimate" "std error" "time";
  List.iter
    (fun samples ->
      let t, ests =
        time_once
          ~name:(Printf.sprintf "%d-samples" samples)
          (fun () -> Conquer.Sampler.estimates ~seed:17 ~samples s q3)
      in
      match ests with
      | { probability; std_error; _ } :: _ ->
        Printf.printf "%-9d %12.4f %12.4f %8.1fms\n" samples probability
          std_error (ms t)
      | [] -> Printf.printf "%-9d (no answers observed)\n" samples)
    [ 100; 1000; 10000 ];
  (* sampling scales to databases where the oracle cannot run at all *)
  let big = tpch_db ~sf:0.1 ~inconsistency:3 in
  let sb = Conquer.Clean.create big in
  Printf.printf "candidates of an sf=0.1 TPC-H instance: %.3g (oracle infeasible)\n"
    (Conquer.Candidates.count big);
  (* the genuine TPC-H Q18, IN-subquery and all — outside the
     rewritable class, fine for the sampler *)
  let q18 = Tpch.Queries.q18_original_form in
  let t, ests =
    time_once ~name:"q18-original-form" (fun () ->
        Conquer.Sampler.estimates ~seed:23 ~samples:200 sb q18.sql)
  in
  Printf.printf
    "sampled the original Q18 (IN/HAVING subquery): %d answers in %.1f ms \
     (200 samples)\n"
    (List.length ests) (ms t);
  note "the sampler is the polynomial fallback the co-NP-hardness result";
  note "        (Section 3) says a rewriting cannot provide; estimates carry";
  note "        standard errors and converge at the usual 1/sqrt(n) rate"

(* exact count distributions *)
let report_ext_distribution () =
  section "Extension: exact COUNT distributions (Poisson-binomial over clusters)";
  let db = tpch_db ~sf:(bench_sf ()) ~inconsistency:3 in
  let s = Conquer.Clean.create db in
  (* duplicates jitter the quantity by a couple of units, so clusters
     near the predicate boundary qualify only probabilistically *)
  let sql = "select l_id from lineitem where l_quantity < 25" in
  Printf.printf "query: %s\n" sql;
  let t, pmf =
    time_once ~name:"count-pmf" (fun () ->
        Conquer.Distribution.count_distribution s sql)
  in
  Printf.printf
    "entity-count distribution over %d possible counts (computed in %.2f ms):\n"
    (Array.length pmf) (ms t);
  Printf.printf "  E[count] = %.3f, Var[count] = %.3f\n"
    (Conquer.Distribution.mean pmf)
    (Conquer.Distribution.variance pmf);
  let mode = ref 0 in
  Array.iteri (fun i p -> if p > pmf.(!mode) then mode := i) pmf;
  Printf.printf "  mode: P(count = %d) = %.4f\n" !mode pmf.(!mode);
  List.iter
    (fun k ->
      if k < Array.length pmf then
        Printf.printf "  P(count >= %d) = %.4f\n" k
          (Conquer.Distribution.at_least pmf k))
    [ 1; !mode; !mode + 2 ];
  note "beyond the paper: not just the expectation of an aggregate but its";
  note "        full distribution, exact in O(k^2) by dynamic programming";
  note "        (clusters are independent Bernoulli events under Dfn 4)"

(* ------------------------------------------------------------------ *)
(* report: parallel execution A/B (DESIGN.md §5e)                      *)
(* ------------------------------------------------------------------ *)

(* Serial vs domain-parallel execution of a hash-join-heavy suite.
   The sf-scaled TPC-H relations above are too small for the fan-out
   to amortize, so this report runs on a synthetic database sized so
   the partition-parallel operators actually engage.  Every query is
   answered at jobs=1 and jobs=4 over the same engine database; the
   serial-equivalence guarantee (bit-identical answers) is spot-checked
   here and tested exhaustively in test/test_parallel.ml.

   Speedup samples are dimensionless ratios; they are recorded through
   the same stats machinery, so in BENCH_<n>.json their value lands in
   [median_ms] verbatim (divided back out of the ms conversion). *)

let report_parallel () =
  section "Parallel execution: jobs=1 vs jobs=4 (hash-join-heavy suite)";
  let scale = if !quick then 1 else 3 in
  let nl = 120_000 * scale and nr = 60_000 * scale in
  let nkeys = 12_000 * scale in
  let rng = Random.State.make [| 0x5eed |] in
  let left =
    Relation.create
      (Schema.make
         [ ("k", Value.TInt); ("v", Value.TInt); ("a", Value.TString) ])
      (List.init nl (fun i ->
           [|
             Value.Int (Random.State.int rng nkeys);
             Value.Int (Random.State.int rng 1000);
             Value.String (Printf.sprintf "l%d" i);
           |]))
  in
  let right =
    Relation.create
      (Schema.make
         [ ("k", Value.TInt); ("g", Value.TInt); ("b", Value.TString) ])
      (List.init nr (fun j ->
           [|
             Value.Int (Random.State.int rng nkeys);
             Value.Int (Random.State.int rng 48);
             Value.String (Printf.sprintf "r%d" j);
           |]))
  in
  let engine = Engine.Database.create () in
  Engine.Database.add_relation engine ~name:"l" left;
  Engine.Database.add_relation engine ~name:"r" right;
  let config jobs = { Engine.Planner.default_config with jobs } in
  Printf.printf "synthetic database: l=%d rows, r=%d rows, %d distinct keys\n"
    nl nr nkeys;
  Printf.printf "recommended domain count on this machine: %d\n"
    (Domain.recommended_domain_count ());
  (* spawn the jobs=4 worker domains before any timing: the pool is
     created lazily, so without this the first jobs=4 sample would be
     charged the domain-spawn cost and the report would manufacture a
     "parallel regression" out of a cold pool.  Also pin the process
     default so an inherited CONQUER_JOBS cannot skew either phase —
     the configs above pin jobs per query anyway; this covers any code
     path that falls back to the default. *)
  Engine.Parallel.warm 4;
  Engine.Parallel.set_default_jobs 1;
  let suite =
    [
      ("join", "select l.a, r.b from l, r where l.k = r.k");
      ( "join-agg",
        "select r.g, count(*), sum(l.v) from l, r where l.k = r.k group by r.g"
      );
      ("filter-agg", "select k, count(*), sum(v), avg(v) from l where v > 100 group by k");
      ("filter-project", "select a from l where v < 500");
    ]
  in
  Printf.printf "%-16s %12s %12s %9s\n" "query" "jobs=1" "jobs=4" "speedup";
  let totals = ref (0.0, 0.0) in
  List.iter
    (fun (name, sql) ->
      let card cfg =
        Relation.cardinality (Engine.Database.query ~config:cfg engine sql)
      in
      if card (config 1) <> card (config 4) then
        failwith (Printf.sprintf "parallel answer mismatch on %s" name);
      (* each phase runs with the process default pinned to its own
         jobs value, so nothing inherited from the environment leaks
         into the measurement *)
      Engine.Parallel.set_default_jobs 1;
      let t1 =
        time_runs ~name:(name ^ "/jobs1") (fun () ->
            Engine.Database.query ~config:(config 1) engine sql)
      in
      Engine.Parallel.set_default_jobs 4;
      let t4 =
        time_runs ~name:(name ^ "/jobs4") (fun () ->
            Engine.Database.query ~config:(config 4) engine sql)
      in
      Engine.Parallel.set_default_jobs 1;
      let speedup = if t4 > 0.0 then t1 /. t4 else 1.0 in
      record (name ^ "/speedup") (Telemetry.Timing.singleton (speedup /. 1000.0));
      let s1, s4 = !totals in
      totals := (s1 +. t1, s4 +. t4);
      Printf.printf "%-16s %10.2fms %10.2fms %8.2fx\n" name (ms t1) (ms t4)
        speedup)
    suite;
  let s1, s4 = !totals in
  let speedup = if s4 > 0.0 then s1 /. s4 else 1.0 in
  record "suite/speedup" (Telemetry.Timing.singleton (speedup /. 1000.0));
  Printf.printf "suite total: %.2fms serial, %.2fms parallel (speedup %.2fx)\n"
    (ms s1) (ms s4) speedup;
  note "partition-parallel hash join / filter / aggregate on a shared,";
  note "        pre-warmed domain pool; answers are bit-identical to serial";
  note "        execution (group order, row order and float accumulation";
  note "        included)"

(* ------------------------------------------------------------------ *)
(* report: serve — the daemon under concurrent load                    *)
(* ------------------------------------------------------------------ *)

(* Boots an in-process [conquer serve] daemon over a synthetic dirty
   store, then measures it from the outside through real sockets:

   - a steady phase (clients <= capacity) yields p50/p99 latency and
     throughput under normal load;
   - a burst phase (clients > workers + queue) exercises admission
     control and yields the shed rate.

   Latencies are wall-clock seconds and recorded verbatim; throughput
   (req/s) and shed rate (fraction) are dimensionless, so like the
   parallel report's speedups they are recorded divided by 1000 to
   survive the ms conversion in BENCH_<n>.json. *)

let report_serve () =
  section "Serve daemon: latency, throughput and shedding over sockets";
  let n_clusters = if !quick then 200 else 600 in
  let members = 3 in
  let rows =
    List.concat
      (List.init n_clusters (fun c ->
           let p = 1.0 /. Float.of_int members in
           List.init members (fun m ->
               [|
                 Value.String (Printf.sprintf "c%d" c);
                 Value.Int ((c * members) + m);
                 Value.Float p;
               |])))
  in
  let rel =
    Relation.create
      (Schema.make
         [ ("id", Value.TString); ("val", Value.TInt); ("prob", Value.TFloat) ])
      rows
  in
  let db =
    Dirty_db.add_table Dirty_db.empty
      (Dirty_db.make_table ~name:"items" ~id_attr:"id" ~prob_attr:"prob" rel)
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "conquer-bench-serve-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Dirty.Store.save dir db;
  let config =
    {
      Server.Serve.default_config with
      port = 0;
      concurrency = 4;
      queue_capacity = 16;
      cache_capacity = 256;
    }
  in
  let t = Server.Serve.create ~config ~dir () in
  let port = Server.Serve.port t in
  let runner = Domain.spawn (fun () -> Server.Serve.run t) in
  let queries =
    [|
      "select id from items";
      "select id, val from items";
      "select id from items where val >= 0";
    |]
  in
  let fire sql =
    try
      let r =
        Server.Http.request ~host:"127.0.0.1" ~port ~timeout:30.0 ~body:sql
          "/query"
      in
      Some r.Server.Http.status
    with _ -> None
  in
  (* warm the prepared-query and result caches *)
  Array.iter (fun q -> ignore (fire q)) queries;
  let shed_before =
    Option.value ~default:0 (Telemetry.Metrics.counter_value "serve.shed")
  in
  (* steady phase: fewer clients than worker+queue capacity *)
  let clients = 6 in
  let per_client = if !quick then 25 else 80 in
  let started = Unix.gettimeofday () in
  let client_results =
    List.init clients (fun c ->
        Domain.spawn (fun () ->
            List.init per_client (fun i ->
                let sql = queries.((c + i) mod Array.length queries) in
                let t0 = Unix.gettimeofday () in
                let status = fire sql in
                (status, Unix.gettimeofday () -. t0))))
    |> List.concat_map Domain.join
  in
  let steady_wall = Unix.gettimeofday () -. started in
  let ok =
    List.filter (fun (s, _) -> s = Some 200) client_results
    |> List.map snd |> Array.of_list
  in
  Array.sort compare ok;
  let n_ok = Array.length ok in
  if n_ok = 0 then failwith "serve bench: no successful responses";
  let quantile q = ok.(min (n_ok - 1) (int_of_float (q *. float_of_int n_ok))) in
  let p50 = quantile 0.50 and p99 = quantile 0.99 in
  let throughput = float_of_int n_ok /. steady_wall in
  record "serve/p50" (Telemetry.Timing.singleton p50);
  record "serve/p99" (Telemetry.Timing.singleton p99);
  record "serve/throughput" (Telemetry.Timing.singleton (throughput /. 1000.0));
  Printf.printf
    "steady phase: %d clients x %d requests — %d ok / %d total\n" clients
    per_client n_ok (List.length client_results);
  Printf.printf "  p50 %.2fms   p99 %.2fms   %.0f req/s\n" (ms p50) (ms p99)
    throughput;
  (* burst phase: more concurrent clients than workers + queue, all
     running an uncacheable heavy query under a short deadline, so
     workers stay busy and admission control must shed the overflow
     with 503.  Deadline expiry inside a worker still answers 200
     with partial rows — only true overload sheds. *)
  let burst_clients = 48 in
  let burst_each = 4 in
  let heavy = "select a.val from items a, items b where a.val + b.val >= 0" in
  let fire_heavy () =
    try
      let r =
        Server.Http.request ~host:"127.0.0.1" ~port ~timeout:30.0 ~body:heavy
          "/query?mode=original&deadline_ms=250"
      in
      Some r.Server.Http.status
    with _ -> None
  in
  let burst =
    List.init burst_clients (fun _ ->
        Domain.spawn (fun () -> List.init burst_each (fun _ -> fire_heavy ())))
    |> List.concat_map Domain.join
  in
  let burst_total = List.length burst in
  let burst_shed = List.length (List.filter (fun s -> s = Some 503) burst) in
  let shed_rate = float_of_int burst_shed /. float_of_int burst_total in
  record "serve/shed_rate" (Telemetry.Timing.singleton (shed_rate /. 1000.0));
  Printf.printf "burst phase: %d clients — shed %d/%d (%.0f%%)\n" burst_clients
    burst_shed burst_total (100.0 *. shed_rate);
  let counter name =
    Option.value ~default:0 (Telemetry.Metrics.counter_value name)
  in
  Printf.printf
    "  counters: requests=%d shed=%d (+%d this run) cache_hits=%d\n"
    (counter "serve.requests") (counter "serve.shed")
    (counter "serve.shed" - shed_before)
    (counter "serve.cache_hits");
  Server.Serve.shutdown t;
  let drain = Domain.join runner in
  Printf.printf "  drain: %s (%d cancelled in flight)\n"
    (if drain.Server.Serve.drained then "clean" else "forced")
    drain.Server.Serve.cancelled_inflight;
  (* trace overhead A/B: the same steady workload against a second
     daemon with every request traced (sample rate 1.0, slow-query
     threshold armed, query log on).  The recorded sample is the
     traced/untraced p50 ratio — dimensionless, so divided by 1000
     like the other ratios; ~0.001 in BENCH json means parity. *)
  let traced_config =
    {
      config with
      trace_sample = 1.0;
      slow_query_ms = Some 500.0;
      trace_capacity = 64;
    }
  in
  let t2 = Server.Serve.create ~config:traced_config ~dir () in
  let port2 = Server.Serve.port t2 in
  let runner2 = Domain.spawn (fun () -> Server.Serve.run t2) in
  let fire2 sql =
    try
      let r =
        Server.Http.request ~host:"127.0.0.1" ~port:port2 ~timeout:30.0
          ~body:sql "/query"
      in
      Some r.Server.Http.status
    with _ -> None
  in
  Array.iter (fun q -> ignore (fire2 q)) queries;
  let traced_results =
    List.init clients (fun c ->
        Domain.spawn (fun () ->
            List.init per_client (fun i ->
                let sql = queries.((c + i) mod Array.length queries) in
                let t0 = Unix.gettimeofday () in
                let status = fire2 sql in
                (status, Unix.gettimeofday () -. t0))))
    |> List.concat_map Domain.join
  in
  let traced_ok =
    List.filter (fun (s, _) -> s = Some 200) traced_results
    |> List.map snd |> Array.of_list
  in
  Array.sort compare traced_ok;
  let n_traced = Array.length traced_ok in
  if n_traced = 0 then failwith "serve bench: no traced responses";
  let traced_p50 =
    traced_ok.(min (n_traced - 1) (int_of_float (0.5 *. float_of_int n_traced)))
  in
  let overhead = traced_p50 /. p50 in
  record "serve/trace_overhead" (Telemetry.Timing.singleton (overhead /. 1000.0));
  Printf.printf
    "traced phase (sample 1.0): p50 %.2fms vs %.2fms untraced — x%.3f\n"
    (ms traced_p50) (ms p50) overhead;
  (* smoke the debug surface while the traced daemon is still up *)
  let debug target =
    try
      (Server.Http.request ~host:"127.0.0.1" ~port:port2 target).Server.Http
        .status
    with _ -> 0
  in
  Printf.printf
    "  debug surface: /debug/requests=%d /debug/traces=%d /debug/querylog=%d \
     /debug/gc=%d /debug/exemplars=%d\n"
    (debug "/debug/requests") (debug "/debug/traces")
    (debug "/debug/querylog?n=5") (debug "/debug/gc")
    (debug "/debug/exemplars");
  Server.Serve.shutdown t2;
  ignore (Domain.join runner2);
  rm_rf dir;
  note "p50/p99 measured through real sockets, cache warm; shed rate";
  note "        from a burst of %d clients against %d workers + queue %d"
    burst_clients config.concurrency config.queue_capacity;
  note "trace_overhead = traced(sample 1.0) p50 / untraced p50, same load"

(* ------------------------------------------------------------------ *)
(* report: update — delta commits, incremental refresh, recovery       *)
(* ------------------------------------------------------------------ *)

(* The mutable-store write path end to end: how fast a delta batch
   commits versus rewriting the whole snapshot, how much an
   incremental view refresh saves over from-scratch re-execution when
   an update touches one cluster out of many, and how long recovery
   takes after a crash torn mid-commit.

   Throughputs (commits/s) and the refresh speedup are dimensionless,
   so — like the parallel report's ratios — they are recorded divided
   by 1000 to survive the ms conversion in BENCH_<n>.json. *)

let report_update () =
  section "Update path: delta commits, incremental refresh, crash recovery";
  let n_clusters = if !quick then 300 else 1000 in
  let members = 3 in
  let rows =
    List.concat
      (List.init n_clusters (fun c ->
           let p = 1.0 /. Float.of_int members in
           List.init members (fun m ->
               [|
                 Value.String (Printf.sprintf "c%d" c);
                 Value.Int ((c * members) + m);
                 Value.Float p;
               |])))
  in
  let rel =
    Relation.create
      (Schema.make
         [ ("id", Value.TString); ("val", Value.TInt); ("prob", Value.TFloat) ])
      rows
  in
  let db =
    Dirty_db.add_table Dirty_db.empty
      (Dirty_db.make_table ~name:"items" ~id_attr:"id" ~prob_attr:"prob" rel)
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "conquer-bench-update-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Dirty.Store.save dir db;
  Printf.printf "store: %d clusters x %d members, generation %d\n" n_clusters
    members
    (Dirty.Store.generation dir);
  let batch k =
    [
      Dirty.Delta.Reassign
        {
          table = "items";
          cluster = Value.String (Printf.sprintf "c%d" (k mod n_clusters));
          weights = [| 1.0; 2.0; 1.0 |];
        };
    ]
  in
  (* 1. commit throughput: journalled delta append vs full snapshot *)
  let n_commits = if !quick then 20 else 60 in
  let t_delta, () =
    time_once ~name:"commit/delta-run" (fun () ->
        for k = 1 to n_commits do
          ignore (Dirty.Store.commit_delta dir (batch k))
        done)
  in
  let delta_rate = float_of_int n_commits /. t_delta in
  record "commit/delta-throughput"
    (Telemetry.Timing.singleton (delta_rate /. 1000.0));
  Printf.printf
    "delta commits: %d in %.1fms (%.2fms each, %.0f commits/s), chain %d, \
     journal %d bytes\n"
    n_commits (ms t_delta)
    (ms t_delta /. float_of_int n_commits)
    delta_rate
    (Dirty.Store.delta_chain_length dir)
    (Dirty.Store.journal_bytes dir);
  let current = Dirty.Store.load dir in
  let t_snapshot =
    time_runs ~name:"commit/snapshot" (fun () -> Dirty.Store.save dir current)
  in
  Printf.printf
    "compacting snapshot: %.2fms (one full rewrite = %.1f delta commits)\n"
    (ms t_snapshot)
    (t_snapshot /. (t_delta /. float_of_int n_commits));
  (* 2. incremental refresh vs from-scratch re-execution *)
  let sql = "select id from items" in
  let session = Conquer.Clean.create db in
  let view = Conquer.Incremental.materialize session sql in
  let outcome = Dirty.Delta.apply db (batch 17) in
  let session' = Conquer.Clean.create outcome.Dirty.Delta.db in
  let stats =
    Conquer.Incremental.refresh view session' ~touched:outcome.Dirty.Delta.touched
  in
  let t_inc =
    time_runs ~name:"refresh/incremental" (fun () ->
        ignore
          (Conquer.Incremental.refresh view session'
             ~touched:outcome.Dirty.Delta.touched))
  in
  let t_scratch =
    time_runs ~name:"refresh/from-scratch" (fun () ->
        ignore (Conquer.Clean.answers session' sql))
  in
  let speedup = if t_inc > 0.0 then t_scratch /. t_inc else 1.0 in
  record "refresh/speedup" (Telemetry.Timing.singleton (speedup /. 1000.0));
  Printf.printf
    "view refresh after a 1-cluster batch (%d groups, %d affected%s):\n"
    (Relation.cardinality (Conquer.Incremental.answers view))
    stats.Conquer.Incremental.s_affected
    (match stats.Conquer.Incremental.s_fallback with
    | None -> ""
    | Some r -> ", FELL BACK: " ^ r);
  Printf.printf "  incremental %.2fms   from-scratch %.2fms   speedup %.1fx\n"
    (ms t_inc) (ms t_scratch) speedup;
  (* 3. recovery time after a crash torn mid-commit *)
  Fault.Io.reset ~record:true ();
  ignore (Dirty.Store.commit_delta dir (batch 23));
  let n_ops = Fault.Io.ops () in
  Fault.Io.reset ();
  Fault.Io.arm [ (n_ops / 2, Fault.Io.Crash) ];
  (match Dirty.Store.commit_delta dir (batch 29) with
  | (_ : int) -> ()
  | exception _ -> ());
  Fault.Io.reset ();
  let t_recover, swept =
    time_once ~name:"recover/after-crash" (fun () ->
        let swept = Dirty.Store.recover dir in
        ignore (Dirty.Store.load dir);
        swept)
  in
  Printf.printf
    "recovery after a crash at op %d/%d of a commit: %.2fms (%d debris file(s) \
     swept)\n"
    (n_ops / 2) n_ops (ms t_recover) (List.length swept);
  rm_rf dir;
  note "delta commits journal one batch (CRC-checked, fsync'd) instead of";
  note "        rewriting the snapshot; refresh recomputes only the answer";
  note "        groups reachable from the touched clusters; recovery replays";
  note "        the committed chain and sweeps the torn tail"

(* ------------------------------------------------------------------ *)
(* bechamel statistical pass                                           *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let sf = if !quick then 0.05 else 0.1 in
  let db = tpch_db ~sf ~inconsistency:3 in
  let s = Conquer.Clean.create db in
  let lineitem = Dirty_db.find_table db "lineitem" in
  let section4 = section4_customer () in
  let section4_clusters = Cluster.of_relation section4 ~id_attr:"cluster" in
  let cora = Tpch.Cora.generate Tpch.Cora.default in
  let example_db = figure2_db () in
  let example_session = Conquer.Clean.create example_db in
  let per_query =
    List.concat_map
      (fun (q : Tpch.Queries.query) ->
        [
          Test.make
            ~name:(Printf.sprintf "fig8/q%02d-original" q.qid)
            (Staged.stage (fun () -> Conquer.Clean.original s q.sql));
          Test.make
            ~name:(Printf.sprintf "fig8/q%02d-rewritten" q.qid)
            (Staged.stage (fun () -> Conquer.Clean.answers s q.sql));
        ])
      Tpch.Queries.all
  in
  [
    Test.make ~name:"example/clean-answers"
      (Staged.stage (fun () ->
           Conquer.Clean.answers example_session
             "select o.id, c.id from orders o, customer c \
              where o.cidfk = c.id and c.balance > 10000"));
    Test.make ~name:"table1/matrix"
      (Staged.stage (fun () ->
           Prob.Matrix.of_relation ~attrs:section4_attrs section4));
    Test.make ~name:"table2/representatives"
      (Staged.stage (fun () ->
           let m = Prob.Matrix.of_relation ~attrs:section4_attrs section4 in
           Prob.Representative.all m section4_clusters));
    Test.make ~name:"table3/assign"
      (Staged.stage (fun () ->
           Prob.Assign.run ~attrs:section4_attrs section4 section4_clusters));
    Test.make ~name:"table4/cora-ranking"
      (Staged.stage (fun () -> Tpch.Cora.ranking cora));
    Test.make ~name:"fig7/propagation"
      (Staged.stage (fun () -> Tpch.Datagen.propagate_all db));
    Test.make ~name:"fig7/assign-lineitem"
      (Staged.stage (fun () -> Prob.Assign.annotate_table lineitem));
    Test.make ~name:"fig9/q3-rewritten-if3"
      (Staged.stage (fun () ->
           Conquer.Clean.answers s (Tpch.Queries.find 3).sql));
    Test.make ~name:"fig10/q3-rewritten-base"
      (Staged.stage (fun () ->
           Conquer.Clean.answers s Tpch.Queries.q3_no_order_by.sql));
  ]
  @ per_query

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  section "Bechamel statistical pass (OLS estimate per run)";
  let tests = bechamel_tests () in
  let grouped = Test.make_grouped ~name:"conquer" tests in
  let quota = if !quick then 0.1 else 0.25 in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ estimate ] -> (name, estimate) :: acc
        | _ -> acc)
      results []
  in
  List.iter
    (fun (name, estimate) ->
      record name (Telemetry.Timing.singleton (estimate /. 1e9));
      Printf.printf "%-44s %14.0f ns/run (%10.3f ms)\n" name estimate
        (estimate /. 1e6))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* report: cluster-sharded scaling curve (ROADMAP item 5)              *)
(* ------------------------------------------------------------------ *)

(* The shard session hash-partitions the store by cluster identifier
   and scatters the rewritten query across the domain pool, so the
   curve below is the sharding analogue of [report_parallel]'s
   jobs=1-vs-4 table: unsharded baseline, then 1/2/4/8 shards through
   the scatter/gather machinery (1 shard measures its pure overhead).
   Answers are checked for agreement with the unsharded path before
   anything is timed, with telemetry on, so a silent fallback to the
   unsharded path would show up as [engine.shard.fallbacks] and fail
   the report rather than fake a flat curve. *)
let report_shard () =
  section "Cluster-sharded execution: shard-count scaling curve (TPC-H)";
  let sf = bench_sf () in
  let db = tpch_db ~sf ~inconsistency:3 in
  Printf.printf "TPC-H sf=%g (%d rows), inconsistency=3\n" sf
    (Tpch.Datagen.total_rows db);
  (* shard scatter claims one domain per shard from the shared pool;
     spawn them before timing so no sample pays the domain-spawn cost *)
  Engine.Parallel.warm 8;
  Engine.Parallel.set_default_jobs 1;
  let shard_counts = [ 1; 2; 4; 8 ] in
  let baseline = Conquer.Clean.create db in
  let sessions =
    List.map (fun n -> (n, Conquer.Clean.create ~shards:n db)) shard_counts
  in
  (* Q1 scan-heavy, Q4 two-way join, Q10 four-way join.  Every TPC-H
     query except Q3 stays on the shard path (Q3 orders by an aliased
     aggregate expression, the documented conservative fallback). *)
  let suite =
    List.filter
      (fun (q : Tpch.Queries.query) -> List.mem q.qid [ 1; 4; 10 ])
      Tpch.Queries.all
  in
  let counter name =
    Option.value ~default:0 (Telemetry.Metrics.counter_value name)
  in
  (* correctness + engagement gate (instrumented, untimed) *)
  Telemetry.Control.with_enabled (fun () ->
      List.iter
        (fun (q : Tpch.Queries.query) ->
          let want =
            Relation.cardinality (Conquer.Clean.answers baseline q.sql)
          in
          List.iter
            (fun (n, s) ->
              let before = counter "engine.shard.fallbacks" in
              let got = Relation.cardinality (Conquer.Clean.answers s q.sql) in
              if got <> want then
                failwith
                  (Printf.sprintf "Q%d: %d rows at %d shards, %d unsharded"
                     q.qid got n want);
              if counter "engine.shard.fallbacks" > before then
                failwith
                  (Printf.sprintf "Q%d fell back to unsharded at %d shards"
                     q.qid n))
            sessions)
        suite);
  Printf.printf "%-6s %11s" "query" "unsharded";
  List.iter
    (fun n -> Printf.printf " %11s" (Printf.sprintf "%d-shard" n))
    shard_counts;
  Printf.printf " %9s\n" "speedup";
  List.iter
    (fun (q : Tpch.Queries.query) ->
      let qname = Printf.sprintf "q%02d" q.qid in
      let t0 =
        time_runs ~name:(qname ^ "/unsharded") (fun () ->
            Conquer.Clean.answers baseline q.sql)
      in
      Printf.printf "Q%-5d %9.2fms" q.qid (ms t0);
      let t1 = ref t0 and tn = ref t0 in
      List.iter
        (fun (n, s) ->
          let t =
            time_runs
              ~name:(Printf.sprintf "%s/shards%d" qname n)
              (fun () -> Conquer.Clean.answers s q.sql)
          in
          if n = 1 then t1 := t;
          tn := t;
          Printf.printf " %9.2fms" (ms t))
        sessions;
      let speedup = if !tn > 0.0 then !t1 /. !tn else 1.0 in
      record (qname ^ "/speedup")
        (Telemetry.Timing.singleton (speedup /. 1000.0));
      Printf.printf " %8.2fx\n" speedup)
    suite;
  (* the same scatter with the Grace spill forced on: the per-shard
     hash joins stream through .spill-*.tmp partition files instead of
     holding both sides in memory, which is what lets the report run
     at scale factors that outgrow the heap *)
  let spill_config =
    {
      Engine.Planner.default_config with
      (* index joins never build a hash table, so they cannot spill;
         forcing hash joins routes every join through the Grace path *)
      use_indexes = false;
      spill_rows = Some (if !quick then 50 else 200);
      spill_dir = Some (Filename.get_temp_dir_name ());
    }
  in
  let q10 = List.find (fun (q : Tpch.Queries.query) -> q.qid = 10) suite in
  let spills = ref 0 in
  Telemetry.Control.with_enabled (fun () ->
      let before = counter "engine.exec.join_spills" in
      List.iter
        (fun (n, s) ->
          if n = 4 then
            ignore (Conquer.Clean.answers ~config:spill_config s q10.sql))
        sessions;
      spills := counter "engine.exec.join_spills" - before);
  if !spills = 0 then failwith "forced spill config spilled no join";
  let tspill =
    time_runs ~name:"q10/shards4-spill" (fun () ->
        let _, s = List.find (fun (n, _) -> n = 4) sessions in
        Conquer.Clean.answers ~config:spill_config s q10.sql)
  in
  Printf.printf
    "Q10 at 4 shards with forced join spill: %.2fms (%d partition joins \
     spilled)\n"
    (ms tspill) !spills;
  note "scatter partitions one table by cluster hash and broadcasts the";
  note "        rest; partial aggregates merge in first-occurrence order, so";
  note "        answers are bag-identical to the unsharded run at every count"

(* ------------------------------------------------------------------ *)
(* BENCH_<n>.json                                                      *)
(* ------------------------------------------------------------------ *)

(* The timed reports run with telemetry disabled, precisely so the
   instrumentation cannot distort the numbers.  Run one fully
   instrumented query afterwards so the metrics snapshot embedded in
   the JSON is populated. *)
let populate_metrics () =
  Telemetry.Control.with_enabled (fun () ->
      let s = Conquer.Clean.create (figure2_db ()) in
      ignore
        (Conquer.Clean.answers s
           "select o.id, c.id from orders o, customer c \
            where o.cidfk = c.id and c.balance > 10000"))

let next_bench_path () =
  let rec free n =
    let path = Printf.sprintf "BENCH_%d.json" n in
    if Sys.file_exists path then free (n + 1) else path
  in
  free 2

let write_bench_json ~reports path =
  let js = Telemetry.Export.json_string in
  let jf = Telemetry.Export.json_float in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"schema\":\"conquer-bench/1\"";
  Buffer.add_string buf (Printf.sprintf ",\"generated_at\":%s" (jf (Unix.time ())));
  Buffer.add_string buf
    (Printf.sprintf ",\"quick\":%b,\"reports\":[%s]" !quick
       (String.concat "," (List.map js reports)));
  Buffer.add_string buf ",\"samples\":[";
  List.iteri
    (fun i (report, name, (s : Telemetry.Timing.stats)) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"report\":%s,\"name\":%s,\"runs\":%d,\"min_ms\":%s,\"median_ms\":%s,\"max_ms\":%s}"
           (js report) (js name) s.runs
           (jf (ms s.min))
           (jf (ms s.median))
           (jf (ms s.max))))
    (List.rev !samples);
  Buffer.add_string buf "],\"metrics\":";
  Buffer.add_string buf (Telemetry.Export.metrics_json ());
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc buf);
  Printf.printf "\nwrote %d sample(s) to %s\n" (List.length !samples) path

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

let reports =
  [
    ("example", report_example);
    ("table1", report_table1);
    ("table2", report_table2);
    ("table3", report_table3);
    ("table4", report_table4);
    ("fig7", report_fig7);
    ("fig8", report_fig8);
    ("fig9", report_fig9);
    ("fig10", report_fig10);
    ("ablation-oracle", report_ablation_oracle);
    ("ablation-independent", report_ablation_independent);
    ("ablation-distance", report_ablation_distance);
    ("ablation-index", report_ablation_index);
    ("ablation-survivorship", report_ablation_survivorship);
    ("ext-expected", report_ext_expected);
    ("ext-matcher", report_ext_matcher);
    ("ext-distribution", report_ext_distribution);
    ("ext-sampler", report_ext_sampler);
    ("parallel", report_parallel);
    ("serve", report_serve);
    ("update", report_update);
    ("shard", report_shard);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let selected = ref [] in
  let bechamel = ref true in
  let json_path = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--no-bechamel" :: rest ->
      bechamel := false;
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | "--list" :: _ ->
      List.iter (fun (name, _) -> print_endline name) reports;
      exit 0
    | "--report" :: name :: rest ->
      if not (List.mem_assoc name reports) then begin
        Printf.eprintf "unknown report %s (try --list)\n" name;
        exit 1
      end;
      selected := !selected @ [ name ];
      bechamel := false;
      parse rest
    | ("--help" | "-h") :: _ ->
      print_endline
        "usage: main.exe [--quick] [--no-bechamel] [--report NAME]... \
         [--json FILE] [--list]";
      exit 0
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n" arg;
      exit 1
  in
  parse (List.tl args);
  let to_run =
    match !selected with [] -> List.map fst reports | names -> names
  in
  Printf.printf
    "ConQuer benchmark harness — reproducing the evaluation of\n\
     \"Clean Answers over Dirty Databases\" (ICDE 2006)%s\n"
    (if !quick then " [quick mode]" else "");
  List.iter
    (fun name ->
      current_report := name;
      (List.assoc name reports) ())
    to_run;
  if !bechamel then begin
    current_report := "bechamel";
    run_bechamel ()
  end;
  populate_metrics ();
  let path = match !json_path with Some p -> p | None -> next_bench_path () in
  write_bench_json ~reports:to_run path
