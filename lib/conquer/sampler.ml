open Dirty

type estimate = {
  row : Relation.row;
  probability : float;
  std_error : float;
  occurrences : int;
}

(* draw one tuple index per cluster according to the probabilities *)
let pick_tuple rng (table : Dirty_db.table) members =
  let u = Random.State.float rng 1.0 in
  let rec go acc = function
    | [] -> List.nth members (List.length members - 1)  (* rounding tail *)
    | [ last ] -> last
    | i :: rest ->
      let acc = acc +. Dirty_db.row_probability table i in
      if u < acc then i else go acc rest
  in
  go 0.0 members

let sample_candidate rng db =
  List.map
    (fun (t : Dirty_db.table) ->
      let chosen = ref [] in
      Cluster.iter
        (fun _ members -> chosen := pick_tuple rng t members :: !chosen)
        t.clustering;
      let rows =
        List.rev_map (Relation.get t.relation) !chosen
      in
      (t.name, Relation.create (Relation.schema t.relation) rows))
    (Dirty_db.tables db)

let estimates ?(seed = 0x5eed) ~samples session sql =
  if samples < 1 then invalid_arg "Sampler.estimates: samples < 1";
  let db = Clean.dirty_db session in
  let rng = Random.State.make [| seed |] in
  let q = Sql.Parser.parse_query sql in
  let eval = Candidates.engine_evaluator db q in
  let counts = Relation.Row_tbl.create 64 in
  for _ = 1 to samples do
    let result = Relation.distinct (eval (sample_candidate rng db)) in
    Relation.iter
      (fun row ->
        Relation.Row_tbl.replace counts row
          (1 + Option.value ~default:0 (Relation.Row_tbl.find_opt counts row)))
      result
  done;
  let n = float_of_int samples in
  Relation.Row_tbl.fold
    (fun row occurrences acc ->
      let p = float_of_int occurrences /. n in
      {
        row;
        probability = p;
        std_error = Float.sqrt (p *. (1.0 -. p) /. n);
        occurrences;
      }
      :: acc)
    counts []
  |> List.sort (fun a b ->
         match Float.compare b.probability a.probability with
         | 0 ->
           (* deterministic tie-break on the row values *)
           compare
             (Array.map Value.to_string a.row)
             (Array.map Value.to_string b.row)
         | c -> c)

let answers ?seed ~samples session sql =
  let ests = estimates ?seed ~samples session sql in
  (* the output schema: run the query once against the dirty tables *)
  let base = Engine.Database.query_ast (Clean.engine session) (Sql.Parser.parse_query sql) in
  let schema =
    Schema.append (Relation.schema base)
      (Schema.make
         [ (Rewrite.prob_column, Value.TFloat); ("std_error", Value.TFloat) ])
  in
  Relation.create schema
    (List.map
       (fun e ->
         Array.append e.row
           [| Value.Float e.probability; Value.Float e.std_error |])
       ests)
