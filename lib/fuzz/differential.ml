(* The differential core: run one fuzz case through both paths and
   compare.

   Operational path: [Rewritable.check], then [Rewrite.rewrite_exn],
   then engine execution.
   Declarative path: [Oracle.answers], candidate enumeration with each
   candidate evaluated by [Reference.eval], which shares no code with
   the engine.

   A rejected query is not a failure — rejection is the fuzzer probing
   the class boundary — but acceptance followed by disagreement with
   the oracle is, as is any exception out of the rewrite or the
   engine on an accepted query. *)

type outcome =
  | Rejected of Conquer.Rewritable.violation list
  | Agree of { answers : int }
  | Mismatch of Conquer.Oracle.mismatch
  | Oracle_too_large of { count : float }
  | Error_during of { stage : string; message : string }

let failing = function
  | Mismatch _ | Error_during _ -> true
  | Rejected _ | Agree _ | Oracle_too_large _ -> false

let to_string = function
  | Rejected vs ->
    "rejected: "
    ^ String.concat "; "
        (List.map Conquer.Rewritable.violation_to_string vs)
  | Agree { answers } -> Printf.sprintf "agree (%d answers)" answers
  | Mismatch mismatch ->
    "MISMATCH: " ^ Conquer.Oracle.mismatch_to_string mismatch
  | Oracle_too_large { count } ->
    Printf.sprintf "oracle budget exceeded (%.0f candidates)" count
  | Error_during { stage; message } ->
    Printf.sprintf "ERROR during %s: %s" stage message

let run ?(max_candidates = 200_000) (case : Case.t) =
  let env = Conquer.Dirty_schema.of_dirty_db case.db in
  match Conquer.Rewritable.check env case.query with
  | Error vs -> Rejected vs
  | Ok _ -> (
    match Conquer.Oracle.answers ~max_candidates case.db case.query with
    | exception Conquer.Oracle.Too_many_candidates { count; _ } ->
      Oracle_too_large { count }
    | exception e ->
      Error_during { stage = "oracle"; message = Printexc.to_string e }
    | oracle -> (
      match Conquer.Rewrite.rewrite_exn env case.query with
      | exception e ->
        Error_during { stage = "rewrite"; message = Printexc.to_string e }
      | rewritten ->
        let session = Conquer.Clean.create case.db in
        match Engine.Database.query_ast (Conquer.Clean.engine session) rewritten with
        | exception e -> Error_during { stage = "execute"; message = Printexc.to_string e }
        | answers -> (
          match Conquer.Oracle.compare_answers ~oracle answers with
          | Ok () -> Agree { answers = Dirty.Relation.cardinality oracle }
          | Error mismatch -> Mismatch mismatch)))

(* The update differential: apply a sequence of update batches and,
   after every batch, run the rewritten query from scratch.  Each
   batch's session is derived from the previous one with
   [Clean.derive], as [conquer serve] does after a commit, so the check
   covers [Delta.apply] and [Clean.derive] together.  Every answer is
   compared with the enumeration oracle on that batch's database
   whenever the database fits the candidate budget. *)

type update_outcome =
  | U_rejected of Conquer.Rewritable.violation list
  | U_agree of { batches : int; answers : int }
  | U_mismatch of {
      batch : int;  (** 1-based index of the first diverging batch *)
      mismatch : Conquer.Oracle.mismatch;
    }
  | U_error of { stage : string; message : string }

let update_failing = function
  | U_mismatch _ | U_error _ -> true
  | U_rejected _ | U_agree _ -> false

let update_to_string = function
  | U_rejected vs ->
    "rejected: "
    ^ String.concat "; "
        (List.map Conquer.Rewritable.violation_to_string vs)
  | U_agree { batches; answers } ->
    Printf.sprintf "agree (%d batches, %d answers)" batches answers
  | U_mismatch { batch; mismatch } ->
    Printf.sprintf "MISMATCH after batch %d: %s" batch
      (Conquer.Oracle.mismatch_to_string mismatch)
  | U_error { stage; message } ->
    Printf.sprintf "ERROR during %s: %s" stage message

let run_updates ?(max_candidates = 200_000)
    (case : Case.t) (batches : Dirty.Delta.batch list) =
  let env = Conquer.Dirty_schema.of_dirty_db case.db in
  match Conquer.Rewritable.check env case.query with
  | Error vs -> U_rejected vs
  | Ok _ -> (
    match Conquer.Rewrite.rewrite_exn env case.query with
    | exception e ->
      U_error { stage = "rewrite"; message = Printexc.to_string e }
    | rewritten -> (
      let exception Fail of update_outcome in
      let fail stage e =
        raise (Fail (U_error { stage; message = Printexc.to_string e }))
      in
      (* returns the derived session and its answer count *)
      let check_batch (session, _) (batch_no, batch) =
        let db =
          try (Dirty.Delta.apply (Conquer.Clean.dirty_db session) batch).db
          with e -> fail (Printf.sprintf "apply (batch %d)" batch_no) e
        in
        let session = Conquer.Clean.derive session db in
        let oracle =
          match Conquer.Oracle.answers ~max_candidates db case.query with
          | oracle -> Some oracle
          | exception Conquer.Oracle.Too_many_candidates _ -> None
          | exception e ->
            fail (Printf.sprintf "oracle (batch %d)" batch_no) e
        in
        let answers =
          try Engine.Database.query_ast (Conquer.Clean.engine session) rewritten
          with e -> fail (Printf.sprintf "execute (batch %d)" batch_no) e
        in
        (match oracle with
        | None -> ()
        | Some oracle -> (
          match Conquer.Oracle.compare_answers ~oracle answers with
          | Ok () -> ()
          | Error mismatch -> raise (Fail (U_mismatch { batch = batch_no; mismatch }))));
        (session, Dirty.Relation.cardinality answers)
      in
      match
        List.fold_left check_batch
          (Conquer.Clean.create case.db, 0)
          (List.mapi (fun i batch -> (i + 1, batch)) batches)
      with
      | exception Fail outcome -> outcome
      | _, answers -> U_agree { batches = List.length batches; answers }))

(* Greedy shrinking: repeatedly take the first shrink candidate that
   still fails, until none does (or the step budget runs out).  Used
   both by the property tests' deliberate-bug check and the CLI's
   counterexample minimizer. *)
let minimize ?(max_steps = 500) still_failing (case : Case.t) =
  let steps = ref 0 in
  let exception Found of Case.t in
  let rec go case =
    if !steps >= max_steps then case
    else
      match
        Case.shrink case (fun candidate ->
            incr steps;
            if !steps <= max_steps && still_failing candidate then
              raise (Found candidate))
      with
      | () -> case
      | exception Found smaller -> go smaller
  in
  go case
