(* Cooperative cancellation.

   A token is a single atomic flag threaded through the executor's
   checkpoints: budget charges, operator boundaries and the loop that
   pushes a stream's source rows all poll it, so a long-running query
   can be interrupted at the next checkpoint rather than only between
   queries.  Checking costs one atomic load, cheap enough for per-row
   paths.

   Tripping is one-shot and carries a reason (published before the
   flag, so any checkpoint that observes the flag also sees why).  The
   wall-clock watchdog behind [--budget-time] lives here too: OCaml's
   [Condition] has no timed wait, so [with_deadline] runs a small
   polling domain that trips the token when the deadline passes and is
   joined when the guarded region ends. *)

let m_cancellations =
  Telemetry.Metrics.counter "engine.cancel.cancellations"
    ~help:"queries interrupted via a cancellation token"

type token = { flag : bool Atomic.t; why : string Atomic.t }

exception Cancelled of string

let () =
  Printexc.register_printer (function
    | Cancelled reason -> Some (Printf.sprintf "query cancelled: %s" reason)
    | _ -> None)

let create () = { flag = Atomic.make false; why = Atomic.make "cancelled" }

let cancel ?(reason = "cancelled") t =
  if not (Atomic.get t.flag) then begin
    (* reason first, flag second: observers of the flag see the reason *)
    Atomic.set t.why reason;
    if Atomic.compare_and_set t.flag false true then
      Telemetry.Metrics.inc m_cancellations
  end

let cancelled t = Atomic.get t.flag
let reason t = if Atomic.get t.flag then Some (Atomic.get t.why) else None
let check t = if Atomic.get t.flag then raise (Cancelled (Atomic.get t.why))

(* ---- wall-clock watchdog ---- *)

let poll_interval = 0.002

let expired_reason seconds =
  if seconds <= 0.0 then
    Printf.sprintf "deadline of %gs already expired" seconds
  else Printf.sprintf "time budget of %gs exceeded" seconds

let with_deadline_watchdog ~seconds t f =
  let stop = Atomic.make false in
  let deadline = Unix.gettimeofday () +. seconds in
  let dog =
    Domain.spawn (fun () ->
        let rec loop () =
          if Atomic.get stop || Atomic.get t.flag then ()
          else begin
            let left = deadline -. Unix.gettimeofday () in
            if left <= 0.0 then
              cancel ~reason:(Printf.sprintf "time budget of %gs exceeded" seconds) t
            else begin
              Unix.sleepf (Float.min poll_interval left);
              loop ()
            end
          end
        in
        loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join dog)
    f

let with_deadline ~seconds t f =
  (* A deadline at or below the watchdog tick is beneath the watchdog's
     resolution: it would fire one poll interval late, after the guarded
     function had already started doing work it was never entitled to.
     Trip the token synchronously instead, before [f] runs — [f] still
     executes (so Truncate-mode callers get their empty partial result
     through the normal path) but observes the cancellation at its very
     first checkpoint.  No watchdog domain is spawned. *)
  if seconds <= poll_interval then begin
    cancel ~reason:(expired_reason seconds) t;
    f ()
  end
  else with_deadline_watchdog ~seconds t f
