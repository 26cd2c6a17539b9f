(* Tracing spans.

   [with_ ~name f] times [f] and charges it with wall-clock and
   allocation deltas (minor and major words, both inclusive of
   children, like the times).  Minor words come from
   {!Gc.minor_words}, which reads this domain's allocation pointer and
   so counts every word whether or not a collection ran inside the
   span.  [Gc.counters]' minor count is not usable on OCaml 5.1: it
   reads about one eighth of the words allocated since the last minor
   collection.  Its major count (direct major allocations plus
   promotions) is exact, so major words still come from it.
   [Gc.quick_stat]'s counters refresh only at collections, so it is no
   use for either.  Both deltas include a few words of the span's own
   bookkeeping.  Nested calls build a tree; when the
   outermost span of the current stack completes, the finished tree
   is handed to every subscriber.

   Domain-safety: the span stack is domain-local ([Domain.DLS]), so
   each domain builds its own tree and a worker domain spawned by
   [Engine.Parallel] can never corrupt the coordinator's stack.  A
   parallel region confines worker spans with {!detached} and merges
   the finished trees back into the coordinator's current span with
   {!attach}, in a deterministic (partition-index) order.  The
   subscriber list is guarded by a mutex; notification itself reads
   an immutable list snapshot.

   With telemetry disabled ({!Control}), [with_] is [f ()] plus one
   branch. *)

type t = {
  name : string;
  mutable attrs : (string * string) list;
  mutable start : float;         (* Unix epoch seconds *)
  mutable elapsed : float;       (* seconds, inclusive of children *)
  mutable minor_words : float;   (* allocation deltas, inclusive *)
  mutable major_words : float;
  mutable children : t list;
}

(* innermost span first; one stack per domain *)
let stack_key : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let stack () = Domain.DLS.get stack_key

(* where this domain's completed roots go: [None] means the global
   subscribers; {!detached} swaps in a capture function *)
let sink_key : (t -> unit) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let subscribers : (t -> unit) list ref = ref []
let subscribers_lock = Mutex.create ()

let subscribe f =
  Mutex.lock subscribers_lock;
  subscribers := f :: !subscribers;
  Mutex.unlock subscribers_lock

(* children accumulate in reverse while the tree is being built; put
   them in chronological order once, when the root completes *)
let rec normalize span =
  span.children <- List.rev span.children;
  List.iter normalize span.children

let add_attr key value =
  if Control.enabled () then
    match !(stack ()) with
    | span :: _ -> span.attrs <- (key, value) :: List.remove_assoc key span.attrs
    | [] -> ()

let complete_root span =
  normalize span;
  match !(Domain.DLS.get sink_key) with
  | Some capture -> capture span
  | None ->
    let subs =
      Mutex.lock subscribers_lock;
      let subs = !subscribers in
      Mutex.unlock subscribers_lock;
      subs
    in
    List.iter (fun f -> f span) subs

let with_ ?(attrs = []) ~name f =
  if not (Control.enabled ()) then f ()
  else begin
    let _, _, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    let span =
      {
        name;
        attrs;
        start = Unix.gettimeofday ();
        elapsed = 0.0;
        minor_words = 0.0;
        major_words = 0.0;
        children = [];
      }
    in
    let st = stack () in
    st := span :: !st;
    let finish () =
      span.elapsed <- Unix.gettimeofday () -. span.start;
      let minor1 = Gc.minor_words () in
      let _, _, major1 = Gc.counters () in
      span.minor_words <- minor1 -. minor0;
      span.major_words <- major1 -. major0;
      (match !st with
      | _ :: rest -> st := rest
      | [] -> ());
      match !st with
      | parent :: _ -> parent.children <- span :: parent.children
      | [] -> complete_root span
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A hand-built span for time that was spent before any instrumented
   code could run (admission-queue wait, for one): the interval is
   measured by the caller, there are no allocation deltas, and the
   span is already "finished" — pair it with {!attach} to graft it
   into a live tree. *)
let manual ?(attrs = []) ~name ~start ~elapsed () =
  {
    name;
    attrs;
    start;
    elapsed;
    minor_words = 0.0;
    major_words = 0.0;
    children = [];
  }

(* ---- parallel regions ---- *)

(* Run [f] under a fresh root span on the current domain, capturing
   the finished tree instead of notifying subscribers.  Used by
   [Engine.Parallel] to confine a worker's spans: the coordinator
   later grafts the returned tree with {!attach}.  The previous stack
   and sink are restored on exit, so nesting is safe. *)
let detached ?attrs ~name f =
  if not (Control.enabled ()) then (f (), None)
  else begin
    let st = stack () and sink = Domain.DLS.get sink_key in
    let saved_stack = !st and saved_sink = !sink in
    let captured = ref None in
    st := [];
    sink := Some (fun span -> captured := Some span);
    Fun.protect
      ~finally:(fun () ->
        st := saved_stack;
        sink := saved_sink)
      (fun () ->
        let v = with_ ?attrs ~name f in
        (v, !captured))
  end

(* Graft an already-finished (normalized) span tree as a child of the
   current span; a no-op outside any span.  The child keeps its own
   timings and allocation deltas. *)
let attach span =
  if Control.enabled () then
    match !(stack ()) with
    | parent :: _ -> parent.children <- span :: parent.children
    | [] -> complete_root span

(* Run [f] with telemetry enabled and also collect the root spans it
   completes, without disturbing other subscribers.  Returns the
   result and the roots in completion order. *)
let collecting f =
  let acc = ref [] in
  let acc_lock = Mutex.create () in
  let collect span =
    Mutex.lock acc_lock;
    acc := span :: !acc;
    Mutex.unlock acc_lock
  in
  Mutex.lock subscribers_lock;
  subscribers := collect :: !subscribers;
  Mutex.unlock subscribers_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock subscribers_lock;
      subscribers := List.filter (fun s -> s != collect) !subscribers;
      Mutex.unlock subscribers_lock)
    (fun () ->
      let v = Control.with_enabled f in
      (v, List.rev !acc))

(* flattened pre-order walk, with depth — handy for exporters *)
let rec fold_preorder f acc ?(depth = 0) span =
  let acc = f acc ~depth span in
  List.fold_left (fun acc child -> fold_preorder f acc ~depth:(depth + 1) child) acc
    span.children
let count span = fold_preorder (fun n ~depth:_ _ -> n + 1) 0 span

(* sum of leaf-span elapsed time — what fraction of a root's
   wall-clock its finest-grained spans account for *)
let leaf_elapsed span =
  fold_preorder
    (fun acc ~depth:_ s -> if s.children = [] then acc +. s.elapsed else acc)
    0.0 span

(* Nested spans are inclusive: an operator's elapsed contains its
   inputs', so the tree says what each subtree cost but not what each
   node itself cost.  [annotate_self] adds the flamegraph-style
   exclusive view: every interior span whose elapsed exceeds the sum
   of its children's gains a final ["(self)"] leaf holding the
   difference.  After annotation the leaves partition the attributed
   wall-clock, so [leaf_elapsed root /. root.elapsed] reads as trace
   coverage — the rest is glue between sibling spans. *)
let rec annotate_self span =
  match span.children with
  | [] -> ()
  | children ->
    List.iter annotate_self children;
    let under = List.fold_left (fun a c -> a +. c.elapsed) 0.0 children in
    let self = span.elapsed -. under in
    if self > 0.0 then
      span.children <-
        span.children
        @ [ manual ~name:"(self)" ~start:span.start ~elapsed:self () ]
