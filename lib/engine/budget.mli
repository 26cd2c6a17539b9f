(** Execution budgets: bounds on the work a query may perform.

    A budget caps the total number of rows the plan's operators
    produce (a proxy for work done — intermediate results count, not
    just the final answer) and the elapsed wall-clock time.  The
    executor charges the budget as rows are materialized, including
    {e inside} join and cross-product loops, so a query whose
    intermediate result explodes is stopped mid-operator rather than
    after the damage is done.

    Two modes of exceeding:

    - [Raise] (the default): raise {!Exceeded} with the work done so
      far — the structured failure callers of
      {!Database.query_ast} observe.
    - [Truncate]: stop producing rows but let the plan finish over the
      partial intermediate results, and record that truncation
      happened.  Used by the degrading query entry points
      ([Database.query_ast_within], [Conquer.Clean.top_answers_within])
      to return partial answers with a truncation flag.

    Crossing the {e time} limit — or an external trip of the attached
    {!Cancel.token} — is a {e cancellation}, not a truncation: in
    [Raise] mode it surfaces as {!Cancel.Cancelled}, and in [Truncate]
    mode the partial result is flagged as cancelled
    (consult {!cancelled}).  {!Exceeded} is reserved for the row
    budget.

    A budget is charged by the one execution it bounds, on one domain,
    and keeps its accounting without a lock; other domains reach it
    only through its {!Cancel.token}.  The executor runs every
    operator serially, so a [Truncate] prefix is deterministic. *)

type limits = {
  max_rows : int option;  (** total rows produced across all operators *)
  max_elapsed : float option;  (** wall-clock seconds *)
}

val no_limits : limits

type mode = Raise | Truncate

exception
  Exceeded of {
    produced : int;  (** rows produced when the budget ran out *)
    elapsed : float;  (** seconds since execution started *)
    limits : limits;  (** the limits that were in force *)
  }

val exceeded_message : produced:int -> elapsed:float -> limits -> string
(** Human-readable rendering used by [Printexc] and the CLI. *)

type t

val create : ?mode:mode -> ?cancel:Cancel.token -> limits -> t
(** A fresh budget; the clock starts now.  When [cancel] is given,
    every charge also polls the token, so tripping it (e.g. from the
    {!Cancel.with_deadline} watchdog) stops the execution at the next
    checkpoint. *)

val admit : t -> int -> int
(** [admit t n] charges [n] more rows and returns how many of them the
    budget admits: [n] while within limits; fewer (possibly 0) in
    [Truncate] mode once the budget stops.  The wall clock is
    consulted at most once every few hundred admitted rows, keeping
    the per-row cost negligible; the cancellation token (if any) is
    polled on every charge.
    @raise Exceeded in [Raise] mode when the row limit is crossed.
    @raise Cancel.Cancelled in [Raise] mode on time-limit crossing or
    token trip. *)

val check_time : t -> unit
(** Force a clock and token check (used at operator boundaries, where
    crossing the time limit should surface promptly).
    @raise Cancel.Cancelled in [Raise] mode. *)

val exhausted : t -> bool
(** True once the budget stopped admitting rows ([Truncate] mode),
    whether by truncation or cancellation. *)

val truncated : t -> bool
(** True when the row budget ran out ([Truncate] mode) — the partial
    result is a prefix of the full one. *)

val cancelled : t -> bool
(** True when the execution was cancelled (time limit or token trip);
    in [Truncate] mode the partial rows produced so far were still
    returned. *)

val cancel_token : t -> Cancel.token option
val limits : t -> limits
val produced : t -> int
