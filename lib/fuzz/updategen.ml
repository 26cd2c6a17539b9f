(* Random valid update sequences for the mutable-store differential
   harness.

   Each generated op is valid against the evolving database state (the
   generator applies ops as it draws them, so ordinals and cluster ids
   always refer to the current state).  Two modes:

   - [Grid] (default): every structural op is followed by a probability
     reassignment of the clusters it touched, with weights drawn on the
     sixteenths grid and summing to exactly 1.  Renormalization divides
     by 1.0, so every probability in the database stays a dyadic
     rational, so float sums and products are exact in whatever order
     a path folds them.
   - [Free]: raw integer weights renormalized off-grid.  Incremental
     maintenance still matches from-scratch execution bit for bit,
     because a refresh folds each group in from-scratch row order. *)

open Dirty

let ( let* ) gen f = QCheck.Gen.( >>= ) gen f

type mode = Grid | Free

(* weights on the dyadic grid summing to exactly 1: sixteenths for
   clusters up to 16 members, halving ladder (1/2, 1/4, ..., last takes
   the remainder) beyond *)
let grid_weights_gen n =
  if n <= 16 then
    let* parts = Dbgen.sixteenths_gen n 16 in
    QCheck.Gen.return
      (Array.of_list (List.map (fun s -> float_of_int s /. 16.0) parts))
  else
    QCheck.Gen.return
      (Array.init n (fun i ->
           if i < n - 1 then 1.0 /. float_of_int (1 lsl (i + 1))
           else 1.0 /. float_of_int (1 lsl (n - 1))))

let free_weights_gen n =
  QCheck.Gen.flatten_a
    (Array.init n (fun _ ->
         let* k = QCheck.Gen.int_range 1 16 in
         QCheck.Gen.return (float_of_int k)))

let weights_gen mode n =
  match mode with Grid -> grid_weights_gen n | Free -> free_weights_gen n

let prob_gen mode =
  let* k = QCheck.Gen.int_range 1 16 in
  match mode with
  | Grid -> QCheck.Gen.return (Value.Float (float_of_int k /. 16.0))
  | Free -> QCheck.Gen.return (Value.Float (float_of_int k /. 17.0))

let cluster_ids (t : Dirty_db.table) = Cluster.id_values t.clustering

let cluster_size (t : Dirty_db.table) id = Cluster.size t.clustering id

(* a fresh cluster identifier: for integer ids, beyond the current
   maximum; for strings, a [u<n>] name *)
let fresh_id (t : Dirty_db.table) n =
  let schema = Relation.schema t.relation in
  let ix = Schema.index_of schema t.id_attr in
  match (Schema.attribute_at schema ix).ty with
  | Value.TInt ->
    let mx =
      Array.fold_left
        (fun acc r -> match r.(ix) with Value.Int i -> max acc i | _ -> acc)
        0 (Relation.rows t.relation)
    in
    Value.Int (mx + 1 + n)
  | _ -> Value.String (Printf.sprintf "u%d" n)

let insert_gen ~mode ~counter (t : Dirty_db.table) =
  let schema = Relation.schema t.relation in
  let ids = cluster_ids t in
  let* id =
    let fresh () =
      incr counter;
      QCheck.Gen.return (fresh_id t !counter)
    in
    match ids with
    | [] -> fresh ()
    | _ ->
      let* existing = QCheck.Gen.bool in
      if existing then QCheck.Gen.oneofl ids else fresh ()
  in
  (* non-designated columns sample from the column's existing values,
     keeping foreign keys plausible without knowing the spec *)
  let* fields =
    QCheck.Gen.flatten_l
      (List.map
         (fun (a : Schema.attribute) ->
           if String.equal a.name t.id_attr then QCheck.Gen.return id
           else if String.equal a.name t.prob_attr then prob_gen mode
           else
             match
               Relation.column t.relation a.name
               |> Array.to_list
               |> List.sort_uniq Value.compare
             with
             | [] -> QCheck.Gen.return (Value.Int 0)
             | pool -> QCheck.Gen.oneofl pool)
         (Schema.attributes schema))
  in
  QCheck.Gen.return (Delta.Insert { table = t.name; row = Array.of_list fields })

let delete_gen (t : Dirty_db.table) =
  let* id = QCheck.Gen.oneofl (cluster_ids t) in
  let* member = QCheck.Gen.int_range 0 (cluster_size t id - 1) in
  QCheck.Gen.return (Delta.Delete { table = t.name; cluster = id; member })

let split_gen ~counter (t : Dirty_db.table) =
  let candidates = List.filter (fun id -> cluster_size t id >= 2) (cluster_ids t) in
  let* id = QCheck.Gen.oneofl candidates in
  let n = cluster_size t id in
  let* picks =
    QCheck.Gen.flatten_l (List.init n (fun i -> QCheck.Gen.pair (QCheck.Gen.return i) QCheck.Gen.bool))
  in
  let members =
    match List.filter_map (fun (i, b) -> if b then Some i else None) picks with
    | [] -> [ 0 ]
    | ms -> ms
  in
  incr counter;
  QCheck.Gen.return
    (Delta.Split { table = t.name; cluster = id; into = fresh_id t !counter; members })

let merge_gen (t : Dirty_db.table) =
  let ids = cluster_ids t in
  let* from_ = QCheck.Gen.oneofl ids in
  let* into = QCheck.Gen.oneofl (List.filter (fun i -> not (Value.equal i from_)) ids) in
  QCheck.Gen.return (Delta.Merge { table = t.name; from_; into })

let reassign_gen ~mode (t : Dirty_db.table) =
  let* id = QCheck.Gen.oneofl (cluster_ids t) in
  let* weights = weights_gen mode (cluster_size t id) in
  QCheck.Gen.return (Delta.Reassign { table = t.name; cluster = id; weights })

let op_gen ~mode ~counter db =
  let tables = Dirty_db.tables db in
  let clustered =
    List.filter (fun (t : Dirty_db.table) -> Cluster.num_clusters t.clustering > 0) tables
  in
  let splittable =
    List.filter (fun (t : Dirty_db.table) -> Cluster.max_cluster_size t.clustering >= 2) clustered
  in
  let mergeable =
    List.filter (fun (t : Dirty_db.table) -> Cluster.num_clusters t.clustering >= 2) clustered
  in
  let pick pool k = let* t = QCheck.Gen.oneofl pool in k t in
  QCheck.Gen.frequency
    ([ (3, pick tables (insert_gen ~mode ~counter)) ]
    @ (if clustered = [] then []
       else [ (2, pick clustered delete_gen); (3, pick clustered (reassign_gen ~mode)) ])
    @ (if splittable = [] then [] else [ (2, pick splittable (split_gen ~counter)) ])
    @ (if mergeable = [] then [] else [ (2, pick mergeable merge_gen) ]))

(* one op plus (in grid mode) reassignment fixups that pull every
   touched, still-existing cluster back onto the dyadic grid *)
let step_gen ~mode ~counter db =
  let* op = op_gen ~mode ~counter db in
  match Delta.apply db [ op ] with
  | exception Delta.Invalid _ ->
    (* op_gen only emits valid ops; treat a slip as a skipped step *)
    QCheck.Gen.return ([], db)
  | { Delta.db = db1; touched; _ } -> (
    match mode with
    | Free -> QCheck.Gen.return ([ op ], db1)
    | Grid ->
      let rec fix acc db = function
        | [] -> QCheck.Gen.return (op :: List.rev acc, db)
        | (table, cluster) :: rest -> (
          match Dirty_db.find_table_opt db table with
          | None -> fix acc db rest
          | Some t ->
            let n = cluster_size t cluster in
            if n = 0 then fix acc db rest
            else
              let* weights = grid_weights_gen n in
              let op = Delta.Reassign { table; cluster; weights } in
              let db = (Delta.apply db [ op ]).Delta.db in
              fix (op :: acc) db rest)
      in
      fix [] db1 touched)

let batch_gen_with ~mode ~counter db ~len =
  let rec loop i db acc =
    if i >= len then QCheck.Gen.return (List.concat (List.rev acc), db)
    else
      let* ops, db = step_gen ~mode ~counter db in
      loop (i + 1) db (ops :: acc)
  in
  loop 0 db []

let batch_gen ?(mode = Grid) db ~len =
  batch_gen_with ~mode ~counter:(ref 0) db ~len

let sequence_gen ?(mode = Grid) db ~batches ~len =
  let counter = ref 0 in
  let rec loop i db acc =
    if i >= batches then QCheck.Gen.return (List.rev acc, db)
    else
      let* batch, db = batch_gen_with ~mode ~counter db ~len in
      if batch = [] then loop i db acc
      else loop (i + 1) db (batch :: acc)
  in
  loop 0 db []

(* ---- whole scenarios for the update differential ---- *)

(* the harness needs queries inside the rewritable class (a rejected
   query exercises nothing): retry the general case generator a few
   times, then fall back to the always-rewritable single-table
   identifier projection *)
let rewritable_query (db : Dirty_db.t) : Sql.Ast.query =
  match Dirty_db.tables db with
  | [] -> invalid_arg "Updategen: empty database"
  | t :: _ ->
    {
      distinct = false;
      select =
        Items
          [ { expr = Col { table = Some "r0"; name = t.id_attr }; alias = None } ];
      from = [ { table = t.name; t_alias = Some "r0" } ];
      outer_joins = [];
      where = None;
      group_by = [];
      having = None;
      order_by = [];
      limit = None;
    }

let rewritable_case_gen ?max_candidates () =
  let rec go tries =
    let* case = Case.gen ?max_candidates () in
    let env = Conquer.Dirty_schema.of_dirty_db case.Case.db in
    match Conquer.Rewritable.check env case.Case.query with
    | Ok _ -> QCheck.Gen.return case
    | Error _ ->
      if tries > 0 then go (tries - 1)
      else
        QCheck.Gen.return { case with Case.query = rewritable_query case.Case.db }
  in
  go 20

let scenario_gen ?mode ?max_candidates ?(batches = 3) ?(len = 2) () =
  let* case = rewritable_case_gen ?max_candidates () in
  let* bs, _final = sequence_gen ?mode case.Case.db ~batches ~len in
  QCheck.Gen.return (case, bs)

let scenario_print (case, batches) =
  Case.print case
  ^ String.concat "\n"
      (List.mapi
         (fun i batch ->
           Printf.sprintf "batch %d:\n  %s" (i + 1)
             (String.concat "\n  " (List.map Delta.op_to_string batch)))
         batches)
  ^ "\n"

let scenario_arbitrary ?mode ?max_candidates ?batches ?len () =
  QCheck.make ~print:scenario_print
    (scenario_gen ?mode ?max_candidates ?batches ?len ())
