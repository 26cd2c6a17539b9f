(* A lazily-created, fixed-size pool of worker domains.

   Design notes:

   - Work distribution is chunk stealing over a shared atomic index:
     a parallel region with [n] tasks publishes one closure that loops
     [i = Atomic.fetch_and_add next 1; if i < n then run task i].
     Workers and the {e caller} all run that same closure, so the
     region completes even if every pool worker is busy with someone
     else's region — which is what makes nested regions deadlock-free.

   - Completion is a mutex/condition pair around a remaining-task
     count.  Taking the mutex on the last decrement also gives the
     caller the happens-before edge it needs to read task results
     written by other domains.

   - Exceptions are captured per task and the lowest task index is
     re-raised in the caller once the region drains, so failures are
     deterministic regardless of scheduling.

   - Telemetry: each task runs under [Telemetry.Span.detached], and the
     captured per-task span trees are re-attached to the caller's
     current span in task-index order — a parallel trace is shaped the
     same from run to run. *)

let max_jobs = max 1 (Domain.recommended_domain_count ())

(* process-wide default used when a caller doesn't pin jobs: CLI
   --jobs override beats the CONQUER_JOBS environment variable beats
   serial *)
let default_override = Atomic.make 0 (* 0 = unset *)

let set_default_jobs n = Atomic.set default_override (max 1 (min max_jobs n))

let env_jobs =
  lazy
    (match Sys.getenv_opt "CONQUER_JOBS" with
    | None -> 1
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n max_jobs
      | _ -> 1))

let default_jobs () =
  let o = Atomic.get default_override in
  if o > 0 then o else Lazy.force env_jobs

(* ---- the pool ---- *)

type pool = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable domains : unit Domain.t list;
  mutable size : int;
  mutable shutdown : bool;
}

let pool =
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    domains = [];
    size = 0;
    shutdown = false;
  }

let rec worker_loop () =
  Mutex.lock pool.lock;
  let rec next_job () =
    if pool.shutdown then None
    else
      match Queue.take_opt pool.queue with
      | Some _ as job -> job
      | None ->
        Condition.wait pool.nonempty pool.lock;
        next_job ()
  in
  let job = next_job () in
  Mutex.unlock pool.lock;
  match job with
  | None -> ()
  | Some job ->
    (* regions capture their own exceptions; a stale region closure
       can only raise through a bug, and must not kill the worker *)
    (try job () with _ -> ());
    worker_loop ()

let () =
  at_exit (fun () ->
      Mutex.lock pool.lock;
      pool.shutdown <- true;
      Condition.broadcast pool.nonempty;
      let domains = pool.domains in
      pool.domains <- [];
      Mutex.unlock pool.lock;
      List.iter Domain.join domains)

(* make sure [want] workers exist (callers also work, so a region
   asking for [jobs] needs [jobs - 1]); the pool only ever grows *)
let ensure_workers want =
  if pool.size < want then begin
    Mutex.lock pool.lock;
    while pool.size < want && not pool.shutdown do
      pool.domains <- Domain.spawn worker_loop :: pool.domains;
      pool.size <- pool.size + 1
    done;
    Mutex.unlock pool.lock
  end

(* pre-spawn the workers a [jobs]-wide region will use, so the first
   timed run doesn't pay domain-creation cost (benchmarks warm the
   pool before sampling) *)
let warm jobs = ensure_workers (max 0 (min jobs max_jobs - 1))

let enqueue_copies k job =
  Mutex.lock pool.lock;
  for _ = 1 to k do
    Queue.add job pool.queue
  done;
  if k = 1 then Condition.signal pool.nonempty else Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock

(* ---- parallel regions ---- *)

let run ?cancel ~jobs n task =
  if n <= 0 then ()
  else if jobs <= 1 || n = 1 then
    for i = 0 to n - 1 do
      (match cancel with Some tok -> Cancel.check tok | None -> ());
      task i
    done
  else begin
    let jobs = min (min jobs max_jobs) n in
    let errors : exn option array = Array.make n None in
    let spans : Telemetry.Span.t option array = Array.make n None in
    let next = Atomic.make 0 in
    let done_lock = Mutex.create () in
    let done_cond = Condition.create () in
    let remaining = ref n in
    let run_one i =
      (match
         (* cancellation checkpoint: once the token trips, remaining
            chunks are claimed and marked cancelled without running, so
            the region drains promptly and the caller sees [Cancelled]
            (lowest-index error wins as usual) *)
         match cancel with
         | Some tok when Cancel.cancelled tok -> Cancel.check tok
         | _ ->
           if Telemetry.Control.enabled () then begin
             let (), span =
               Telemetry.Span.detached
                 ~attrs:[ ("task", string_of_int i) ]
                 ~name:"parallel.task"
                 (fun () -> task i)
             in
             spans.(i) <- span
           end
           else task i
       with
      | () -> ()
      | exception e -> errors.(i) <- Some e);
      Mutex.lock done_lock;
      decr remaining;
      if !remaining = 0 then Condition.signal done_cond;
      Mutex.unlock done_lock
    in
    let region () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          run_one i;
          loop ()
        end
      in
      loop ()
    in
    let helpers = jobs - 1 in
    ensure_workers helpers;
    enqueue_copies helpers region;
    region ();
    Mutex.lock done_lock;
    while !remaining > 0 do
      Condition.wait done_cond done_lock
    done;
    Mutex.unlock done_lock;
    Array.iter (function Some sp -> Telemetry.Span.attach sp | None -> ()) spans;
    Array.iter (function Some e -> raise e | None -> ()) errors
  end

let init ?cancel ~jobs n f =
  if n <= 0 then [||]
  else begin
    let results = Array.make n None in
    run ?cancel ~jobs n (fun i -> results.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) results
  end
