open Dirty

type cluster_slot = {
  table : string;
  rows : int array;  (* member row indices *)
  probs : float array;  (* matching probabilities *)
}

type selection = {
  slots : cluster_slot array;
  choice : int array;  (* per slot, index into [rows] *)
}

let chosen_rows selection table =
  let acc = ref [] in
  Array.iteri
    (fun i slot ->
      if slot.table = table then acc := slot.rows.(selection.choice.(i)) :: !acc)
    selection.slots;
  List.sort Int.compare !acc

let slots_of_db db =
  let slots = ref [] in
  List.iter
    (fun (t : Dirty_db.table) ->
      Cluster.iter
        (fun _id members ->
          let rows = Array.of_list members in
          let probs = Array.map (Dirty_db.row_probability t) rows in
          slots := { table = t.name; rows; probs } :: !slots)
        t.clustering)
    (Dirty_db.tables db);
  Array.of_list (List.rev !slots)

let count db =
  Array.fold_left
    (fun acc slot -> acc *. float_of_int (Array.length slot.rows))
    1.0 (slots_of_db db)

let fold ?(max_candidates = 1_000_000) db f init =
  let slots = slots_of_db db in
  let total = count db in
  if total > float_of_int max_candidates then
    invalid_arg
      (Printf.sprintf
         "Candidates.fold: %.0f candidate databases exceed the limit of %d"
         total max_candidates);
  let n = Array.length slots in
  let choice = Array.make n 0 in
  let selection = { slots; choice } in
  let acc = ref init in
  let rec go i prob =
    if i >= n then acc := f !acc selection prob
    else
      let slot = slots.(i) in
      for j = 0 to Array.length slot.rows - 1 do
        choice.(i) <- j;
        go (i + 1) (prob *. slot.probs.(j))
      done
  in
  go 0 1.0;
  !acc

let candidate_relations db selection =
  List.map
    (fun (t : Dirty_db.table) ->
      let rows = chosen_rows selection t.name in
      let schema = Relation.schema t.relation in
      ( t.name,
        Relation.create schema (List.map (Relation.get t.relation) rows) ))
    (Dirty_db.tables db)

type evaluator = (string * Relation.t) list -> Relation.t

(* One engine database and one plan serve every candidate; only the
   base relations are swapped. *)
let engine_evaluator db query : evaluator =
  let engine = Engine.Database.create () in
  List.iter
    (fun (t : Dirty_db.table) ->
      Engine.Database.add_relation engine ~name:t.name t.relation)
    (Dirty_db.tables db);
  let plan = Engine.Database.plan engine query in
  fun relations ->
    List.iter
      (fun (name, rel) -> Engine.Database.add_relation engine ~name rel)
      relations;
    Engine.Database.run_plan engine plan

(* [f acc answers prob] over every candidate, [answers] being the set
   [eval] returns on it *)
let fold_answers ?max_candidates db eval f init =
  fold ?max_candidates db
    (fun acc selection prob ->
      f acc (Relation.distinct (eval (candidate_relations db selection))) prob)
    init

let clean_answers_with ?max_candidates eval db =
  let answers = Relation.Row_tbl.create 64 in
  let schema =
    fold_answers ?max_candidates db eval
      (fun schema result prob ->
        Relation.iter
          (fun row ->
            let p = Option.value ~default:0.0 (Relation.Row_tbl.find_opt answers row) in
            Relation.Row_tbl.replace answers row (p +. prob))
          result;
        match schema with None -> Some (Relation.schema result) | s -> s)
      None
  in
  (* [fold] visits at least one candidate *)
  let out_schema =
    Schema.append (Option.get schema)
      (Schema.make [ (Rewrite.prob_column, Value.TFloat) ])
  in
  let rows =
    Relation.Row_tbl.fold
      (fun row prob acc -> Array.append row [| Value.Float prob |] :: acc)
      answers []
  in
  let rel = Relation.create out_schema rows in
  let cmp a b =
    let n = Array.length a in
    let rec go i =
      if i >= n then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  Relation.sort_by cmp rel

let nonempty_mass_with ?max_candidates eval db =
  fold_answers ?max_candidates db eval
    (fun total result prob ->
      if Relation.is_empty result then total else total +. prob)
    0.0

let clean_answers ?max_candidates db query =
  clean_answers_with ?max_candidates (engine_evaluator db query) db

let probability_that_nonempty ?max_candidates db query =
  nonempty_mass_with ?max_candidates (engine_evaluator db query) db
