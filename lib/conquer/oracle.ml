open Dirty

exception Too_many_candidates of { count : float; limit : int }

let default_max_candidates = 1_000_000

let m_evaluations =
  Telemetry.Metrics.counter "conquer.oracle.evaluations"
    ~help:"queries evaluated by the candidate-semantics oracle"

let m_candidates =
  Telemetry.Metrics.counter "conquer.oracle.candidates"
    ~help:"candidate databases materialized by the oracle"

let candidate_count = Candidates.count

let guard max_candidates db =
  let count = candidate_count db in
  if count > float_of_int max_candidates then
    raise (Too_many_candidates { count; limit = max_candidates })

(* candidates are evaluated by the reference evaluator, which shares no
   code with the engine the oracle is used to check *)
let reference query relations = Reference.eval relations query

let answers ?(max_candidates = default_max_candidates) db query =
  guard max_candidates db;
  Telemetry.Span.with_ ~name:"conquer.oracle" @@ fun () ->
  Telemetry.Metrics.inc m_evaluations;
  Telemetry.Metrics.inc
    ~n:(int_of_float (candidate_count db))
    m_candidates;
  Candidates.clean_answers_with ~max_candidates (reference query) db

let answer_probabilities ?max_candidates db query =
  let rel = answers ?max_candidates db query in
  Relation.fold
    (fun acc row ->
      let n = Array.length row in
      let key = Array.sub row 0 (n - 1) in
      match Value.to_float row.(n - 1) with
      | Some p -> (key, p) :: acc
      | None -> acc)
    [] rel
  |> List.rev

(* ---- differential comparison ---- *)

type mismatch = {
  detail : string;
  row : Relation.row option;
  oracle_prob : float option;
  actual_prob : float option;
}

let mismatch_to_string m =
  match m.row with
  | None -> m.detail
  | Some row ->
    let cell v = Value.to_string v in
    let prob = function Some p -> Printf.sprintf "%.9g" p | None -> "absent" in
    Printf.sprintf "%s: row (%s): oracle %s, candidate %s" m.detail
      (String.concat ", " (Array.to_list (Array.map cell row)))
      (prob m.oracle_prob) (prob m.actual_prob)

let prob_map rel =
  let tbl = Relation.Row_tbl.create 64 in
  Relation.iter
    (fun row ->
      let n = Array.length row in
      let key = Array.sub row 0 (n - 1) in
      match Value.to_float row.(n - 1) with
      | Some p -> Relation.Row_tbl.replace tbl key p
      | None -> ())
    rel;
  tbl

let compare_answers ?(eps = 1e-9) ~oracle candidate =
  if
    Relation.cardinality oracle > 0
    && Relation.cardinality candidate > 0
    && Schema.arity (Relation.schema oracle)
       <> Schema.arity (Relation.schema candidate)
  then
    Error
      {
        detail =
          Printf.sprintf "answer arity differs: oracle %d, candidate %d"
            (Schema.arity (Relation.schema oracle))
            (Schema.arity (Relation.schema candidate));
        row = None;
        oracle_prob = None;
        actual_prob = None;
      }
  else begin
    let expected = prob_map oracle in
    let got = prob_map candidate in
    let first_error = ref None in
    let record m = if !first_error = None then first_error := Some m in
    Relation.Row_tbl.iter
      (fun key p ->
        match Relation.Row_tbl.find_opt got key with
        | Some q when Float.abs (p -. q) <= eps -> ()
        | Some q ->
          record
            {
              detail = "probability differs";
              row = Some key;
              oracle_prob = Some p;
              actual_prob = Some q;
            }
        | None ->
          record
            {
              detail = "answer missing from candidate";
              row = Some key;
              oracle_prob = Some p;
              actual_prob = None;
            })
      expected;
    Relation.Row_tbl.iter
      (fun key q ->
        if not (Relation.Row_tbl.mem expected key) then
          record
            {
              detail = "spurious answer in candidate";
              row = Some key;
              oracle_prob = None;
              actual_prob = Some q;
            })
      got;
    match !first_error with None -> Ok () | Some m -> Error m
  end

let refute ?eps ?max_candidates db query candidate =
  let oracle = answers ?max_candidates db query in
  match compare_answers ?eps ~oracle candidate with
  | Ok () -> None
  | Error m -> Some m
