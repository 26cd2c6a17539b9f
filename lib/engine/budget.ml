type limits = { max_rows : int option; max_elapsed : float option }

let no_limits = { max_rows = None; max_elapsed = None }

type mode = Raise | Truncate

exception
  Exceeded of { produced : int; elapsed : float; limits : limits }

let exceeded_message ~produced ~elapsed limits =
  let limit_s =
    String.concat ", "
      (List.filter_map Fun.id
         [
           Option.map (Printf.sprintf "max %d rows") limits.max_rows;
           Option.map (Printf.sprintf "max %gs") limits.max_elapsed;
         ])
  in
  Printf.sprintf "execution budget exceeded after %d rows in %.3fs (%s)" produced
    elapsed
    (if limit_s = "" then "no limits" else limit_s)

let () =
  Printexc.register_printer (function
    | Exceeded { produced; elapsed; limits } ->
      Some (exceeded_message ~produced ~elapsed limits)
    | _ -> None)

(* rows admitted between wall-clock reads; gettimeofday costs ~20ns so
   this keeps the per-row overhead well under a nanosecond amortized *)
let time_check_interval = 256

(* A budget belongs to one execution, which runs on one domain, so its
   accounting needs no lock.  What another domain may do — trip the
   cancellation token (the deadline watchdog, a client disconnect) —
   goes through the token's atomics. *)
type t = {
  limits : limits;
  mode : mode;
  started : float;
  cancel : Cancel.token option;
  mutable produced : int;
  mutable stopped : bool;
  mutable was_cancelled : bool;
  mutable countdown : int;
}

let create ?(mode = Raise) ?cancel limits =
  {
    limits;
    mode;
    started = Unix.gettimeofday ();
    cancel;
    produced = 0;
    stopped = false;
    was_cancelled = false;
    countdown = time_check_interval;
  }

let elapsed t = Unix.gettimeofday () -. t.started
let produced t = t.produced
let exhausted t = t.stopped
let truncated t = t.stopped && not t.was_cancelled
let cancelled t = t.was_cancelled
let cancel_token t = t.cancel
let limits t = t.limits

(* raises in [Raise] mode *)
let stop t =
  match t.mode with
  | Raise ->
    raise (Exceeded { produced = t.produced; elapsed = elapsed t; limits = t.limits })
  | Truncate -> t.stopped <- true

(* Stop because of cancellation — either the token tripped (watchdog,
   caller) or the wall-clock limit was crossed.  Unlike a row-budget
   stop this is surfaced as [Cancel.Cancelled], and the token (when
   present) is tripped so every holder of it observes the stop. *)
let stop_cancel t reason =
  t.was_cancelled <- true;
  (match t.cancel with Some tok -> Cancel.cancel ~reason tok | None -> ());
  match t.mode with
  | Raise -> raise (Cancel.Cancelled reason)
  | Truncate -> t.stopped <- true

let over_time t =
  match t.limits.max_elapsed with
  | None -> false
  | Some lim -> elapsed t > lim

let time_reason t =
  Printf.sprintf "time budget of %gs exceeded after %d rows in %.3fs"
    (Option.value t.limits.max_elapsed ~default:0.0)
    t.produced (elapsed t)

(* token trip observed at a checkpoint; None when the token is absent
   or untripped *)
let token_reason t =
  match t.cancel with
  | Some tok when Cancel.cancelled tok ->
    Some (Option.value (Cancel.reason tok) ~default:"cancelled")
  | _ -> None

let check_time t =
  if not t.stopped then
    match token_reason t with
    | Some reason -> stop_cancel t reason
    | None -> if over_time t then stop_cancel t (time_reason t)

let admit t n =
  if t.stopped then 0
  else begin
    (match token_reason t with
     | Some reason -> stop_cancel t reason
     | None ->
       t.countdown <- t.countdown - n;
       if t.countdown <= 0 then begin
         t.countdown <- time_check_interval;
         if over_time t then stop_cancel t (time_reason t)
       end);
    if t.stopped then 0
    else
      match t.limits.max_rows with
      | None ->
        t.produced <- t.produced + n;
        n
      | Some lim ->
        if t.produced + n <= lim then begin
          t.produced <- t.produced + n;
          n
        end
        else begin
          let allowed = max 0 (lim - t.produced) in
          t.produced <- t.produced + n;
          stop t;
          (* only reached in Truncate mode *)
          allowed
        end
  end
