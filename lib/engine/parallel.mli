(** A fixed-size pool of worker domains.  Its one production caller
    is [Prob.Assign], which spreads the per-cluster distance work of
    probability assignment over it; queries run no parallel region.

    The pool is created lazily on the first parallel region and grows
    (never shrinks) to the largest [jobs] ever requested, capped at the
    domain count the runtime recommends (at least 1).  Work is
    distributed by chunk stealing over a shared atomic index, and the
    {e caller participates}: a parallel region makes progress even when
    every worker is busy, so nested regions cannot deadlock.

    Telemetry spans opened inside tasks are confined to the executing
    domain ([Telemetry.Span] keeps per-domain stacks) and merged back
    into the caller's span in task-index order, so traces of parallel
    runs are deterministic. *)

val default_jobs : unit -> int
(** The jobs count used when no explicit configuration is given: the
    process-wide override from {!set_default_jobs} if set, else the
    [CONQUER_JOBS] environment variable if parseable, else [1]. *)

val set_default_jobs : int -> unit
(** Set the process-wide default (clamped to between 1 and the
    recommended domain count); used by the CLI's [--jobs] flag. *)

val warm : int -> unit
(** [warm jobs] pre-spawns the worker domains a [jobs]-wide region
    would use (clamped to the recommended domain count), so the first
    parallel region does not pay domain-creation cost.  Benchmarks call this before
    sampling; otherwise the lazily-created pool charges its spawn time
    to whichever run happens first. *)

val run : ?cancel:Cancel.token -> jobs:int -> int -> (int -> unit) -> unit
(** [run ~jobs n task] evaluates [task i] for every [0 <= i < n],
    using up to [jobs] domains (including the calling one).  Tasks
    must be thread-safe and write to disjoint state.  Blocks until all
    tasks finish; completed-task effects are visible to the caller.
    If any task raises, the exception of the lowest task index is
    re-raised in the caller after all tasks finish.  With [jobs <= 1]
    or [n <= 1] the tasks run inline in index order.

    When [cancel] is given, the token is polled before each task: once
    it trips, unstarted tasks are skipped and {!Cancel.Cancelled} is
    raised after the region drains.  Only pass a token when raising is
    acceptable. *)

val init : ?cancel:Cancel.token -> jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [Array.init n f] with the calls distributed
    like {!run}; element [i] is [f i].  The order of evaluation is
    unspecified, so [f] must be pure up to thread-safe effects.
    [cancel] behaves as in {!run}. *)
