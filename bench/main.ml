(* Paper-reproduction harness: regenerates every table and figure of
   the paper's evaluation (Section 5) plus the qualitative tables of
   Section 4, and runs the ablations called out in DESIGN.md.

   Usage:
     main.exe                  run every report
     main.exe --report NAME    run one report (see --list)
     main.exe --quick          smaller data sizes (CI-friendly)
     main.exe --list           list report names

   The times in its tables are a reading of the paper's trends, not a
   benchmark: the repository's one performance harness, with
   correctness gates, noise-aware metrics and a traced per-layer split,
   is perfbench (python3 perfbench/run.py, see perfbench/README.md). *)

module Value = Dirty.Value
module Relation = Dirty.Relation
module Schema = Dirty.Schema
module Cluster = Dirty.Cluster
module Dirty_db = Dirty.Dirty_db

(* ------------------------------------------------------------------ *)
(* timing helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* median wall-clock over [runs] executions after one warmup, through
   Telemetry.Timing, the helper the CLI's [profile] subcommand uses *)
let time_runs ?runs f = (Telemetry.Timing.time_runs ?runs f).median

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
      let t_prop = time_runs (fun () -> Tpch.Datagen.propagate_all db) in
      let t_assign =
        time_runs (fun () -> Prob.Assign.annotate_table lineitem)
      in
      let t_scan =
        time_runs
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
      let t_orig = time_runs (fun () -> Conquer.Clean.original s q.sql) in
      let t_rew = time_runs (fun () -> Conquer.Clean.answers s q.sql) in
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
      let t_orig = time_runs (fun () -> Conquer.Clean.original s q3) in
      let t_rew = time_runs (fun () -> Conquer.Clean.answers s q3) in
      let t_orig_nob = time_runs (fun () -> Conquer.Clean.original s q3_nob) in
      let t_rew_nob = time_runs (fun () -> Conquer.Clean.answers s q3_nob) in
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
        (fun (_, _, s) ->
          let t = time_runs (fun () -> Conquer.Clean.answers s q.sql) in
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
      let t_rew = time_runs (fun () -> Conquer.Clean.answers s sql) in
      let t_oracle =
        if candidates <= 70_000.0 then
          Printf.sprintf "%10.2fms"
            (ms
               (time_runs ~runs:1
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
      let t_with = time_runs (fun () -> Conquer.Clean.answers with_idx q.sql) in
      let t_without =
        time_runs (fun () -> Conquer.Clean.answers without_idx q.sql)
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
  let show name sql =
    let t = time_runs (fun () -> Conquer.Expected.answers s sql) in
    let r = Conquer.Expected.answers s sql in
    Printf.printf "%s (%d groups, %.2f ms):\n" name (Relation.cardinality r)
      (ms t);
    print_string (Relation.to_string ~max_rows:6 r)
  in
  show "Q1 with its aggregates restored"
    "select l_returnflag, l_linestatus, sum(l_quantity), \
     sum(l_extendedprice), count(*) from lineitem \
     where l_shipdate <= date '1998-09-02' \
     group by l_returnflag, l_linestatus \
     order by l_returnflag, l_linestatus";
  show "Q6 revenue"
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
        Telemetry.Timing.time_once
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
    Telemetry.Timing.time_once (fun () ->
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
        Telemetry.Timing.time_once
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
    Telemetry.Timing.time_once (fun () ->
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
    Telemetry.Timing.time_once (fun () ->
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
  ]

let () =
  let args = Array.to_list Sys.argv in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
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
      parse rest
    | ("--help" | "-h") :: _ ->
      print_endline "usage: main.exe [--quick] [--report NAME]... [--list]";
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
  List.iter (fun name -> (List.assoc name reports) ()) to_run
