(** Cooperative query cancellation.

    A token is polled at the executor's checkpoints — budget charges,
    operator boundaries, every 1024th row a stream's source pushes —
    and before each task of a {!Parallel} region, so a running query
    stops at the next checkpoint after the token trips.  Polling is one
    atomic load; tripping is one-shot and counted by the
    [engine.cancel.cancellations] telemetry counter. *)

type token

exception Cancelled of string
(** Raised at a checkpoint of a cancelled execution (in [Raise] budget
    mode); the payload is the {!cancel} reason. *)

val create : unit -> token

val cancel : ?reason:string -> token -> unit
(** Trip the token (idempotent; the first reason wins). *)

val cancelled : token -> bool
val reason : token -> string option

val check : token -> unit
(** @raise Cancelled if the token has tripped. *)

val with_deadline : seconds:float -> token -> (unit -> 'a) -> 'a
(** Run [f] under a wall-clock watchdog: a polling domain trips the
    token once [seconds] elapse, interrupting work at the next
    checkpoint even when no single operator ever finishes.  The watchdog is always joined before returning.

    A deadline that is already past — zero, negative, or at or below
    the watchdog's 2ms tick — trips the token {e before} [f] runs
    (and spawns no watchdog), so [f] observes the cancellation at its
    first checkpoint instead of one tick later. *)
