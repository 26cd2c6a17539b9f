(* The differential core: run one fuzz case through both paths and
   compare.

   Operational path: [Rewritable.check], then [Rewrite.rewrite_exn],
   then engine execution — once per requested parallelism degree,
   unsharded and at every requested shard count, since answers must
   be bit-identical at any [jobs] and [shards] value.
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
  | Mismatch of { jobs : int; mismatch : Conquer.Oracle.mismatch }
  | S_mismatch of {
      shards : int;
      jobs : int;
      vs_oracle : bool;
          (* true: sharded answers disagree with the oracle; false:
             they disagree bit-for-bit with the unsharded answers *)
      mismatch : Conquer.Oracle.mismatch;
    }
  | S_error of { shards : int; jobs : int; message : string }
  | Oracle_too_large of { count : float }
  | Error_during of { stage : string; message : string }

let default_jobs = [ 1; 4 ]
let default_shards = [ 1; 2; 4 ]

let failing = function
  | Mismatch _ | S_mismatch _ | S_error _ | Error_during _ -> true
  | Rejected _ | Agree _ | Oracle_too_large _ -> false

let to_string = function
  | Rejected vs ->
    "rejected: "
    ^ String.concat "; "
        (List.map Conquer.Rewritable.violation_to_string vs)
  | Agree { answers } -> Printf.sprintf "agree (%d answers)" answers
  | Mismatch { jobs; mismatch } ->
    Printf.sprintf "MISMATCH at jobs=%d: %s" jobs
      (Conquer.Oracle.mismatch_to_string mismatch)
  | S_mismatch { shards; jobs; vs_oracle; mismatch } ->
    Printf.sprintf "SHARD MISMATCH vs %s at shards=%d (jobs=%d): %s"
      (if vs_oracle then "oracle" else "unsharded answers")
      shards jobs
      (Conquer.Oracle.mismatch_to_string mismatch)
  | S_error { shards; jobs; message } ->
    Printf.sprintf "SHARD ERROR at shards=%d (jobs=%d): %s" shards jobs
      message
  | Oracle_too_large { count } ->
    Printf.sprintf "oracle budget exceeded (%.0f candidates)" count
  | Error_during { stage; message } ->
    Printf.sprintf "ERROR during %s: %s" stage message

let run ?(jobs = default_jobs) ?(shards = default_shards)
    ?(max_candidates = 200_000) (case : Case.t) =
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
        (* one unsharded leg per jobs value *)
        let reference = ref None in
        let rec check_legs = function
          | [] -> check_shards ()
          | j :: rest -> (
            let config = { Engine.Planner.default_config with jobs = j } in
            match
              Engine.Database.query_ast ~config
                (Conquer.Clean.engine session)
                rewritten
            with
            | exception e ->
              Error_during
                {
                  stage = Printf.sprintf "execute (jobs=%d)" j;
                  message = Printexc.to_string e;
                }
            | answers -> (
              if !reference = None then reference := Some answers;
              match Conquer.Oracle.compare_answers ~oracle answers with
              | Ok () -> check_legs rest
              | Error mismatch -> Mismatch { jobs = j; mismatch }))
        (* the shards legs: scatter/gather across every shard count ×
           jobs combination must agree with the oracle and be
           bit-identical (eps 0 — the dbgen grid keeps float sums exact
           under re-association across shards) to the unsharded answers
           of the first leg *)
        and check_shards () =
          let unsharded = Option.get !reference in
          let shard_legs =
            List.concat_map (fun s -> List.map (fun j -> (s, j)) jobs) shards
          in
          let rec go = function
            | [] -> Agree { answers = Dirty.Relation.cardinality oracle }
            | (s, j) :: rest -> (
              let config = { Engine.Planner.default_config with jobs = j } in
              match
                let sharded = Conquer.Clean.create ~shards:s case.db in
                Conquer.Clean.answers_ast_within ~config sharded rewritten
              with
              | exception e ->
                S_error { shards = s; jobs = j; message = Printexc.to_string e }
              | answers, _stop -> (
                match Conquer.Oracle.compare_answers ~oracle answers with
                | Error mismatch ->
                  S_mismatch { shards = s; jobs = j; vs_oracle = true; mismatch }
                | Ok () -> (
                  match
                    Conquer.Oracle.compare_answers ~eps:0.0 ~oracle:unsharded
                      answers
                  with
                  | Error mismatch ->
                    S_mismatch { shards = s; jobs = j; vs_oracle = false; mismatch }
                  | Ok () -> go rest)))
          in
          go shard_legs
        in
        check_legs jobs))

(* The update differential: replay a sequence of update batches and
   compare incremental view maintenance against from-scratch execution
   after every batch, at every jobs leg.  The comparison runs at
   eps 0 by default: refreshes feed each answer group's probabilities
   in the order a from-scratch run does, so both produce the same
   float bits, on or off the dyadic grid.  The final database is additionally checked
   against the enumeration oracle when it fits the candidate budget. *)

type update_outcome =
  | U_rejected of Conquer.Rewritable.violation list
  | U_agree of { batches : int; answers : int; fallbacks : int }
  | U_mismatch of {
      jobs : int;
      batch : int;  (** 1-based index of the first diverging batch *)
      mismatch : Conquer.Oracle.mismatch;
    }
  | U_oracle_mismatch of { mismatch : Conquer.Oracle.mismatch }
  | U_error of { stage : string; message : string }

let update_failing = function
  | U_mismatch _ | U_oracle_mismatch _ | U_error _ -> true
  | U_rejected _ | U_agree _ -> false

let update_to_string = function
  | U_rejected vs ->
    "rejected: "
    ^ String.concat "; "
        (List.map Conquer.Rewritable.violation_to_string vs)
  | U_agree { batches; answers; fallbacks } ->
    Printf.sprintf "agree (%d batches, %d answers, %d fallbacks)" batches
      answers fallbacks
  | U_mismatch { jobs; batch; mismatch } ->
    Printf.sprintf "MISMATCH after batch %d at jobs=%d: %s" batch jobs
      (Conquer.Oracle.mismatch_to_string mismatch)
  | U_oracle_mismatch { mismatch } ->
    Printf.sprintf "ORACLE MISMATCH on final database: %s"
      (Conquer.Oracle.mismatch_to_string mismatch)
  | U_error { stage; message } ->
    Printf.sprintf "ERROR during %s: %s" stage message

let run_updates ?(jobs = default_jobs) ?(max_candidates = 200_000)
    ?(eps = 0.0) (case : Case.t) (batches : Dirty.Delta.batch list) =
  let env = Conquer.Dirty_schema.of_dirty_db case.db in
  match Conquer.Rewritable.check env case.query with
  | Error vs -> U_rejected vs
  | Ok _ -> (
    match
      (* apply the batches once; the per-leg work is read-only *)
      List.fold_left
        (fun (db, acc) batch ->
          let o = Dirty.Delta.apply db batch in
          (o.Dirty.Delta.db, (o.Dirty.Delta.touched, o.Dirty.Delta.db) :: acc))
        (case.db, []) batches
    with
    | exception e ->
      U_error { stage = "apply"; message = Printexc.to_string e }
    | _, rev_states -> (
      let states =
        List.rev_map
          (fun (touched, db) -> (touched, Conquer.Clean.create db))
          rev_states
      in
      let session0 = Conquer.Clean.create case.db in
      match Conquer.Rewrite.rewrite_exn env case.query with
      | exception e ->
        U_error { stage = "rewrite"; message = Printexc.to_string e }
      | rewritten -> (
        let fallbacks = ref 0 in
        let exception Fail of update_outcome in
        let check_leg j =
          let config = { Engine.Planner.default_config with jobs = j } in
          let stage fmt =
            Printf.ksprintf (fun s -> Printf.sprintf "%s (jobs=%d)" s j) fmt
          in
          let view =
            try Conquer.Incremental.materialize_query ~config session0 case.query
            with e ->
              raise
                (Fail
                   (U_error
                      {
                        stage = stage "materialize";
                        message = Printexc.to_string e;
                      }))
          in
          List.iteri
            (fun i (touched, session) ->
              (match
                 Conquer.Incremental.refresh ~config view session ~touched
               with
              | exception e ->
                raise
                  (Fail
                     (U_error
                        {
                          stage = stage "refresh (batch %d)" (i + 1);
                          message = Printexc.to_string e;
                        }))
              | stats ->
                if stats.Conquer.Incremental.s_fallback <> None then
                  incr fallbacks);
              let scratch =
                try
                  Engine.Database.query_ast ~config
                    (Conquer.Clean.engine session)
                    rewritten
                with e ->
                  raise
                    (Fail
                       (U_error
                          {
                            stage = stage "execute (batch %d)" (i + 1);
                            message = Printexc.to_string e;
                          }))
              in
              match
                Conquer.Oracle.compare_answers ~eps ~oracle:scratch
                  (Conquer.Incremental.answers view)
              with
              | Ok () -> ()
              | Error mismatch ->
                raise
                  (Fail (U_mismatch { jobs = j; batch = i + 1; mismatch })))
            states;
          view
        in
        match List.map check_leg jobs with
        | exception Fail outcome -> outcome
        | views -> (
          let view = List.hd views in
          let answers =
            Dirty.Relation.cardinality (Conquer.Incremental.answers view)
          in
          let agree =
            U_agree
              { batches = List.length states; answers; fallbacks = !fallbacks }
          in
          match states with
          | [] -> agree
          | _ -> (
            let _, final_session = List.nth states (List.length states - 1) in
            let final_db = Conquer.Clean.dirty_db final_session in
            match Conquer.Oracle.answers ~max_candidates final_db case.query with
            | exception Conquer.Oracle.Too_many_candidates _ -> agree
            | exception e ->
              U_error { stage = "oracle"; message = Printexc.to_string e }
            | oracle -> (
              match
                Conquer.Oracle.compare_answers ~oracle
                  (Conquer.Incremental.answers view)
              with
              | Ok () -> agree
              | Error mismatch -> U_oracle_mismatch { mismatch }))))))

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
