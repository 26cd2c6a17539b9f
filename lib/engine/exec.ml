open Dirty

type catalog = {
  relation : string -> Relation.t;
  index : string -> string -> Index.t option;
}

exception Exec_error of string

let exec_errorf fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

(* ---- telemetry ----

   Per-operator spans and registry counters.  Everything is gated on
   {!Telemetry.Control.enabled}, so the disabled cost on the per-row
   paths is a flag test. *)

let m_operators =
  Telemetry.Metrics.counter "engine.exec.operators"
    ~help:"plan operators evaluated"

let m_rows_out =
  Telemetry.Metrics.counter "engine.exec.rows_out"
    ~help:"rows produced by plan operators (intermediates and streamed joins included)"

let m_budget_ticks =
  Telemetry.Metrics.counter "engine.exec.budget_ticks"
    ~help:"per-row budget charges inside join emit loops"

let h_operator_seconds =
  Telemetry.Metrics.histogram "engine.exec.operator_seconds"
    ~help:"wall-clock per plan operator (inclusive of children)"

let operator_label (plan : Plan.t) =
  match plan with
  | Scan { table; _ } -> "Scan " ^ table
  | Filter _ -> "Filter"
  | Project _ -> "Project"
  | Hash_join _ -> "HashJoin"
  | Index_join { table; _ } -> "IndexJoin " ^ table
  | Left_outer_join _ -> "LeftOuterJoin"
  | Cross _ -> "CrossProduct"
  | Aggregate _ -> "Aggregate"
  | Sort _ -> "Sort"
  | Distinct _ -> "Distinct"
  | Limit _ -> "Limit"

(* ---- budget accounting ----

   Operators charge the budget per row.  In [Raise] mode {!Budget.admit}
   raises {!Budget.Exceeded} itself; in [Truncate] mode it stops
   admitting rows, and the local [Budget_stop] exception unwinds the
   emit loop, so the operator (for a streamed join, the node consuming
   the stream) finishes with the rows produced so far. *)

exception Budget_stop

let tick budget =
  match budget with
  | None -> ()
  | Some b ->
    Telemetry.Metrics.inc m_budget_ticks;
    if Budget.admit b 1 = 0 then raise Budget_stop

(* nodes whose emit loops tick per row; everything else is charged on
   its materialized output at the node boundary *)
let per_row_charged (plan : Plan.t) =
  match plan with
  | Hash_join _ | Left_outer_join _ | Cross _ | Index_join _ -> true
  | Scan _ | Filter _ | Project _ | Aggregate _ | Sort _ | Distinct _ | Limit _ ->
    false

(* Result of a per-row-charged emit loop.  A cancelled execution's
   partial rows are discarded at every node boundary above anyway, so
   don't pay to reverse and materialize a possibly huge accumulator —
   this is part of what keeps cancellation latency bounded. *)
let emit_result budget out_schema out =
  match budget with
  | Some b when Budget.cancelled b -> Relation.create out_schema []
  | _ -> Relation.create out_schema (List.rev !out)

let infer_column_ty rows j =
  let rec go i =
    if i >= Array.length rows then Value.TString
    else match Value.type_of rows.(i).(j) with Some ty -> ty | None -> go (i + 1)
  in
  go 0

let infer_schema names rows =
  Schema.make (List.mapi (fun j name -> (name, infer_column_ty rows j)) names)

(* the output row of the compiled items [fns] over [row] *)
let project_row fns row =
  let out = Array.make (Array.length fns) Value.Null in
  for c = 0 to Array.length fns - 1 do
    out.(c) <- fns.(c) row
  done;
  out

let compile schema e =
  try Expr.compile schema e with
  | Expr.Unbound_column c -> exec_errorf "unbound column %s" c
  | Expr.Ambiguous_column c -> exec_errorf "ambiguous column %s" c
  | Expr.Type_error msg -> raise (Exec_error msg)

let predicate schema e =
  let f = compile schema e in
  fun row -> Expr.truth (f row)

(* ---- aggregation ---- *)

(* Collect the distinct aggregate calls appearing in the given
   expressions, in syntactic order. *)
let collect_aggs exprs =
  let seen = ref [] in
  let rec go (e : Sql.Ast.expr) =
    match e with
    | Agg (_, _) -> if not (List.mem e !seen) then seen := e :: !seen
    | Lit _ | Col _ | Exists _ | Scalar_subquery _ -> ()
    | Unop (_, a) | Like (a, _) | Not_like (a, _) | In_list (a, _)
    | Is_null a | Is_not_null a | In_query (a, _) ->
      go a
    | Binop (_, a, b) -> go a; go b
    | Between (a, b, c) -> go a; go b; go c
  in
  List.iter go exprs;
  List.rev !seen

(* Substitute group-by expressions and aggregate calls with references
   to the intermediate columns #g<i> / #a<i>. *)
let rewrite_grouped ~group_by ~aggs e =
  let rec go (e : Sql.Ast.expr) : Sql.Ast.expr =
    match List.find_index (Sql.Ast.equal_expr e) group_by with
    | Some i -> Col { table = None; name = Printf.sprintf "#g%d" i }
    | None -> (
      match List.find_index (Sql.Ast.equal_expr e) aggs with
      | Some i -> Col { table = None; name = Printf.sprintf "#a%d" i }
      | None -> (
        match e with
        | Lit _ | Col _ -> e
        | Unop (op, a) -> Unop (op, go a)
        | Binop (op, a, b) -> Binop (op, go a, go b)
        | Like (a, p) -> Like (go a, p)
        | Not_like (a, p) -> Not_like (go a, p)
        | In_list (a, vs) -> In_list (go a, vs)
        | Between (a, b, c) -> Between (go a, go b, go c)
        | Is_null a -> Is_null (go a)
        | Is_not_null a -> Is_not_null (go a)
        | In_query (a, q) -> In_query (go a, q)
        | Exists _ | Scalar_subquery _ -> e
        | Agg _ ->
          exec_errorf "nested aggregate: %s" (Sql.Pretty.expr_to_string e)))
  in
  go e

(* Tail of the aggregation operator: [finished_rows] are [key columns
   @ aggregate columns] rows in first-occurrence group order; apply
   HAVING and the final projection over the #g/#a intermediate
   schema. *)
let aggregate_output ~group_by ~items ~having ~aggs finished_rows =
  let num_keys = List.length group_by in
  let num_aggs = List.length aggs in
  (* fast path: the output columns are exactly the group columns
     followed by the aggregates, and no HAVING — emit directly *)
  let rewritten_items =
    List.map (fun (e, n) -> (rewrite_grouped ~group_by ~aggs e, n)) items
  in
  let is_passthrough =
    having = None
    && List.length items = num_keys + num_aggs
    && List.for_all2
         (fun (e, _) i ->
           match (e : Sql.Ast.expr) with
           | Col { table = None; name } ->
             name
             = (if i < num_keys then Printf.sprintf "#g%d" i
                else Printf.sprintf "#a%d" (i - num_keys))
           | _ -> false)
         rewritten_items
         (List.init (List.length items) Fun.id)
  in
  if is_passthrough then
    Relation.of_array (infer_schema (List.map snd items) finished_rows) finished_rows
  else begin
    let inter_names =
      List.mapi (fun i _ -> Printf.sprintf "#g%d" i) group_by
      @ List.mapi (fun i _ -> Printf.sprintf "#a%d" i) aggs
    in
    let inter_schema = infer_schema inter_names finished_rows in
    let inter = Relation.of_array inter_schema finished_rows in
    let inter =
      match having with
      | None -> inter
      | Some h ->
        let h' = rewrite_grouped ~group_by ~aggs h in
        Relation.filter (predicate inter_schema h') inter
    in
    let out_names = List.map snd items in
    let out_fns =
      Array.of_list (List.map (fun (e, _) -> compile inter_schema e) rewritten_items)
    in
    let out_rows = Array.map (project_row out_fns) (Relation.rows inter) in
    Relation.of_array (infer_schema out_names out_rows) out_rows
  end

(* ---- partition-parallel helpers ----

   Filter and Project, given enough rows, split their input into
   contiguous chunks, evaluate the chunks on the domain pool, and
   concatenate the per-chunk results in chunk order — so the output
   row order (and hence every downstream result) is bit-identical to a
   serial run.  Small inputs stay serial: below
   [Parallel.min_rows_per_chunk] per requested job the handoff costs
   more than it saves.  Joins and aggregates always run serially:
   they stream, so there is no input array to partition. *)

let use_parallel ~jobs n = jobs > 1 && n >= jobs * !Parallel.min_rows_per_chunk

(* split [0..n-1] into contiguous ranges, a few per job so chunk
   stealing evens out skew; returns [(offset, length)] pairs *)
let chunk_ranges ~jobs n =
  let max_chunks = max 1 (n / max 1 !Parallel.min_rows_per_chunk) in
  let chunks = max 1 (min (jobs * 4) max_chunks) in
  let base = n / chunks and extra = n mod chunks in
  Array.init chunks (fun i ->
      let lo = (i * base) + min i extra in
      let len = base + if i < extra then 1 else 0 in
      (lo, len))

(* cancellation token forwarded to parallel regions, which abort with
   [Cancel.Cancelled] once it trips.  In [Raise] budget mode that is
   the desired outcome.  A Truncate-mode execution whose token trips
   answers no rows (every node boundary above the stop hands on an
   empty input), so its regions abort too and {!run} turns the abort
   into that empty answer.  Once a Truncate-mode budget has stopped,
   regions only see the emptied inputs of that stop and get no token,
   so they run to completion. *)
let region_cancel budget =
  match budget with
  | Some b when Budget.mode b = Budget.Raise -> Budget.cancel_token b
  | Some b when not (Budget.exhausted b) -> Budget.cancel_token b
  | _ -> None

(* A serial run has no chunk claims to poll the token at, so [f]
   polls it itself every 1024 calls: a deadline that lands inside a
   large serial filter or projection stops it there, not at the next
   node boundary.  Without a token (no budget) [f] runs unwrapped. *)
let polled cancel f =
  match cancel with
  | None -> f
  | Some tok ->
    let calls = ref 0 in
    fun x ->
      if !calls land 1023 = 0 then Cancel.check tok;
      incr calls;
      f x

(* parallel filter over row ranges; preserves row order exactly *)
let run_filter ?cancel ~jobs pred rel =
  let rows = Relation.rows rel in
  let n = Array.length rows in
  if not (use_parallel ~jobs n) then Relation.filter (polled cancel pred) rel
  else begin
    let ranges = chunk_ranges ~jobs n in
    let parts =
      Parallel.init ?cancel ~jobs (Array.length ranges) (fun ci ->
          let lo, len = ranges.(ci) in
          let acc = ref [] in
          for i = lo + len - 1 downto lo do
            if pred rows.(i) then acc := rows.(i) :: !acc
          done;
          !acc)
    in
    Relation.create (Relation.schema rel) (List.concat (Array.to_list parts))
  end

(* parallel row mapping (Project) over row ranges: each chunk fills
   its own range of the one output array, so row order is kept *)
let run_map_rows ?cancel ~jobs f rel =
  let rows = Relation.rows rel in
  let n = Array.length rows in
  if not (use_parallel ~jobs n) then Array.map (polled cancel f) rows
  else begin
    let out = Array.make n [||] in
    let ranges = chunk_ranges ~jobs n in
    Parallel.run ?cancel ~jobs (Array.length ranges) (fun ci ->
        let lo, len = ranges.(ci) in
        for i = lo to lo + len - 1 do
          out.(i) <- f rows.(i)
        done);
    out
  end

(* ---- the grouping kernel ----

   One hash-aggregate for every GROUP BY.  It takes its input row by
   row, in order, from a stream.  Its per-row work allocates nothing
   beyond what the key and argument expressions themselves return:
   - an open-addressing table of two int arrays (full hash, group id),
     linear probing, grown by doubling at half load; it sizes with the
     number of groups, not rows;
   - keys are evaluated into one reused scratch buffer and copied into
     a flat key store only when they open a new group;
   - accumulators are flat per-group arrays ([Float.Array] for float
     sums, int arrays for counts and int sums, one [Value.t] array for
     MIN/MAX) that grow with the group count.
   Group ids are dense and in first-occurrence order, so the output
   rows are built once, in that order. *)

(* per-group accumulators; [sum_state] is 0 before the first non-NULL
   value, 1 while the sum is exact in ints, 2 once a non-int value
   switched it to floats *)
type acc =
  | Count_acc of { mutable counts : int array }
  | Sum_acc of {
      mutable sum_state : Bytes.t;
      mutable int_sums : int array;
      mutable float_sums : Float.Array.t;
    }
  | Avg_acc of { mutable totals : Float.Array.t; mutable avg_counts : int array }
  | Best_acc of { min : bool; mutable best : Value.t array }  (** MIN or MAX *)

let new_acc (f : Sql.Ast.agg_fun) cap =
  match f with
  | Count -> Count_acc { counts = Array.make cap 0 }
  | Sum ->
    Sum_acc
      {
        sum_state = Bytes.make cap '\000';
        int_sums = Array.make cap 0;
        float_sums = Float.Array.make cap 0.0;
      }
  | Avg -> Avg_acc { totals = Float.Array.make cap 0.0; avg_counts = Array.make cap 0 }
  | Min -> Best_acc { min = true; best = Array.make cap Value.Null }
  | Max -> Best_acc { min = false; best = Array.make cap Value.Null }

let grow_ints a cap =
  let b = Array.make cap 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_floats a cap =
  let b = Float.Array.make cap 0.0 in
  Float.Array.blit a 0 b 0 (Float.Array.length a);
  b

let grow_values a cap =
  let b = Array.make cap Value.Null in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_acc acc cap =
  match acc with
  | Count_acc a -> a.counts <- grow_ints a.counts cap
  | Sum_acc a ->
    let st = Bytes.make cap '\000' in
    Bytes.blit a.sum_state 0 st 0 (Bytes.length a.sum_state);
    a.sum_state <- st;
    a.int_sums <- grow_ints a.int_sums cap;
    a.float_sums <- grow_floats a.float_sums cap
  | Avg_acc a ->
    a.totals <- grow_floats a.totals cap;
    a.avg_counts <- grow_ints a.avg_counts cap
  | Best_acc a -> a.best <- grow_values a.best cap

let count_star acc g =
  match acc with
  | Count_acc a -> a.counts.(g) <- a.counts.(g) + 1
  | Sum_acc _ | Avg_acc _ | Best_acc _ ->
    exec_errorf "aggregate other than COUNT requires an argument"

let sum_float (a : Float.Array.t) g f = Float.Array.set a g (Float.Array.get a g +. f)

(* fold one non-star argument value into group [g] *)
let feed acc g (v : Value.t) =
  match acc, v with
  | _, Null -> ()
  | Count_acc a, _ -> a.counts.(g) <- a.counts.(g) + 1
  | Sum_acc a, Int i ->
    if Bytes.get a.sum_state g = '\002' then sum_float a.float_sums g (float_of_int i)
    else begin
      Bytes.set a.sum_state g '\001';
      a.int_sums.(g) <- a.int_sums.(g) + i
    end
  | Sum_acc a, _ ->
    let f =
      match v with
      | Float f -> f
      | _ -> (
        match Value.to_float v with
        | Some f -> f
        | None -> exec_errorf "SUM of non-numeric value %s" (Value.to_string v))
    in
    if Bytes.get a.sum_state g <> '\002' then begin
      (* the exact int prefix becomes the float sum's start *)
      Bytes.set a.sum_state g '\002';
      Float.Array.set a.float_sums g (float_of_int a.int_sums.(g))
    end;
    sum_float a.float_sums g f
  | Avg_acc a, _ ->
    let f =
      match v with
      | Float f -> f
      | Int i -> float_of_int i
      | _ -> (
        match Value.to_float v with
        | Some f -> f
        | None -> exec_errorf "AVG of non-numeric value %s" (Value.to_string v))
    in
    sum_float a.totals g f;
    a.avg_counts.(g) <- a.avg_counts.(g) + 1
  | Best_acc a, _ -> (
    match a.best.(g) with
    | Null -> a.best.(g) <- v
    | m ->
      let c = Value.compare v m in
      if (a.min && c < 0) || ((not a.min) && c > 0) then a.best.(g) <- v)

let finish acc g : Value.t =
  match acc with
  | Count_acc a -> Int a.counts.(g)
  | Sum_acc a -> (
    match Bytes.get a.sum_state g with
    | '\000' -> Null
    | '\001' -> Int a.int_sums.(g)
    | _ -> Float (Float.Array.get a.float_sums g))
  | Avg_acc a ->
    let n = a.avg_counts.(g) in
    if n = 0 then Null else Float (Float.Array.get a.totals g /. float_of_int n)
  | Best_acc a -> a.best.(g)

type groups = {
  arity : int;  (** key columns *)
  mutable cap : int;  (** groups the arrays below have room for *)
  mutable mask : int;  (** slot count - 1 *)
  mutable slot_hash : int array;
  mutable slot_gid : int array;  (** -1 = empty slot *)
  mutable count : int;  (** groups so far; ids are [0 .. count - 1] *)
  mutable keys : Value.t array;  (** [arity] values per group *)
  accs : acc array;
}

let new_groups arity funs =
  let cap = 16 in
  {
    arity;
    cap;
    mask = (2 * cap) - 1;
    slot_hash = Array.make (2 * cap) 0;
    slot_gid = Array.make (2 * cap) (-1);
    count = 0;
    keys = Array.make (arity * cap) Value.Null;
    accs = Array.map (fun f -> new_acc f cap) funs;
  }

let rec free_slot slot_gid mask i =
  if slot_gid.(i) < 0 then i else free_slot slot_gid mask ((i + 1) land mask)

(* double the group capacity and the slot table (kept at most half
   full), re-placing every group by its stored hash *)
let grow g =
  let cap = 2 * g.cap in
  g.cap <- cap;
  g.keys <- grow_values g.keys (g.arity * cap);
  Array.iter (fun acc -> grow_acc acc cap) g.accs;
  let nslots = 2 * cap in
  let mask = nslots - 1 in
  let slot_hash = Array.make nslots 0 and slot_gid = Array.make nslots (-1) in
  for s = 0 to g.mask do
    let gid = g.slot_gid.(s) in
    if gid >= 0 then begin
      let h = g.slot_hash.(s) in
      let i = free_slot slot_gid mask (h land mask) in
      slot_hash.(i) <- h;
      slot_gid.(i) <- gid
    end
  done;
  g.mask <- mask;
  g.slot_hash <- slot_hash;
  g.slot_gid <- slot_gid

(* keys read from the same stored row or joined-in tuple are often
   physically the same value, which [Value.equal] would still walk *)
let rec same_key keys kofs src sofs j arity =
  j >= arity
  ||
  let a = keys.(kofs + j) and b = src.(sofs + j) in
  (a == b || Value.equal a b) && same_key keys kofs src sofs (j + 1) arity

(* open group [gid = g.count] for the key at [src.(sofs)] in slot [i] *)
let insert g i src sofs h =
  let gid = g.count in
  g.count <- gid + 1;
  g.slot_hash.(i) <- h;
  g.slot_gid.(i) <- gid;
  Array.blit src sofs g.keys (gid * g.arity) g.arity;
  gid

(* the group of the key [src.(sofs) .. src.(sofs + arity - 1)] with
   hash [h], opened (key copied) when it is new; top-level and
   tail-recursive, so a lookup allocates nothing *)
let rec find_or_add g src sofs h i =
  let gid = g.slot_gid.(i) in
  if gid < 0 then
    if g.count < g.cap then insert g i src sofs h
    else begin
      grow g;
      insert g (free_slot g.slot_gid g.mask (h land g.mask)) src sofs h
    end
  else if g.slot_hash.(i) = h && same_key g.keys (gid * g.arity) src sofs 0 g.arity
  then gid
  else find_or_add g src sofs h ((i + 1) land g.mask)

let group_of g src sofs h = find_or_add g src sofs h (h land g.mask)

(* the output row of group [gid]: its key, then each aggregate *)
let group_row g gid =
  let arity = g.arity in
  let row = Array.make (arity + Array.length g.accs) Value.Null in
  Array.blit g.keys (gid * arity) row 0 arity;
  Array.iteri (fun a acc -> row.(arity + a) <- finish acc gid) g.accs;
  row

(* an aggregate argument: count-star or a compiled expression *)
type agg_arg = Star_arg | Expr_arg of (Relation.row -> Value.t)

let key_hash key_fns scratch row =
  let h = ref 0 in
  for j = 0 to Array.length key_fns - 1 do
    let v = key_fns.(j) row in
    scratch.(j) <- v;
    h := (!h * 0x9E3779B1) + Index.hash_value v
  done;
  Index.mix !h

let feed_row g gid args row =
  for a = 0 to Array.length args - 1 do
    match args.(a) with
    | Star_arg -> count_star g.accs.(a) gid
    | Expr_arg f -> feed g.accs.(a) gid (f row)
  done

(* ---- streams ----

   Hash and index joins do not build their output: each pushes its
   rows, in order, into its consumer as it produces them.  The
   consumer is a [sink]: called once with the stream's schema, before
   any row, it returns the function that takes the rows.  A join reads
   its probe (left) input as a stream too, so a chain of joins runs as
   one loop over the chain's leftmost materialized input, and an
   Aggregate on top groups the rows as the joins produce them.  Every
   other node materializes its output, which is drained into a stream
   where a join or an Aggregate reads it.  A join whose whole output is
   needed (the plan root, a hash join's build side, or the input of
   any node other than a join or an Aggregate) collects its stream
   into one growable array. *)

type sink = Schema.t -> Relation.row -> unit

let streams (plan : Plan.t) =
  match plan with
  | Hash_join _ | Index_join _ -> true
  | Scan _ | Filter _ | Project _ | Left_outer_join _ | Cross _ | Aggregate _ | Sort _
  | Distinct _ | Limit _ ->
    false

(* Push a materialized relation into [sink].  This is the loop that
   drives a stream, so a Truncate stop raised by any join above ends
   the whole stream here, and every consumer keeps what it received. *)
let drain rel (sink : sink) =
  let push = sink (Relation.schema rel) in
  try Relation.iter push rel with Budget_stop -> ()

(* The rows of the stream [produce], kept in one growable array.  A
   cancelled execution's partial rows are discarded at every node
   boundary above anyway, so it answers none. *)
let collect budget (produce : sink -> unit) =
  let schema = ref None and rows = ref [||] and n = ref 0 in
  produce (fun s ->
      schema := Some s;
      fun row ->
        if !n = Array.length !rows then begin
          let grown = Array.make (max 64 (2 * !n)) [||] in
          Array.blit !rows 0 grown 0 !n;
          rows := grown
        end;
        !rows.(!n) <- row;
        incr n);
  let schema = Option.get !schema in
  match budget with
  | Some b when Budget.cancelled b -> Relation.of_array schema [||]
  | _ -> Relation.of_array schema (Array.sub !rows 0 !n)

(* Group the stream [produce] as it arrives: each row is hashed and
   folded into its group, and never kept. *)
let run_aggregate (produce : sink -> unit) ~group_by ~items ~having =
  let aggs = collect_aggs (List.map fst items @ Option.to_list having) in
  let agg_fun (e : Sql.Ast.expr) =
    match e with Agg (f, _) -> f | _ -> assert false
  in
  let g = new_groups (List.length group_by) (Array.of_list (List.map agg_fun aggs)) in
  produce (fun schema ->
      let key_fns = Array.of_list (List.map (compile schema) group_by) in
      let args =
        Array.of_list
          (List.map
             (fun (e : Sql.Ast.expr) ->
               match e with
               | Agg (_, None) -> Star_arg
               | Agg (_, Some arg) -> Expr_arg (compile schema arg)
               | _ -> assert false)
             aggs)
      in
      let scratch = Array.make g.arity Value.Null in
      fun row ->
        feed_row g (group_of g scratch 0 (key_hash key_fns scratch row)) args row);
  (* SQL semantics: an ungrouped aggregate over an empty input yields
     a single row of initial aggregate values *)
  if g.arity = 0 && g.count = 0 then ignore (group_of g [||] 0 (Index.mix 0));
  aggregate_output ~group_by ~items ~having ~aggs (Array.init g.count (group_row g))

(* ---- joins ---- *)

(* A build-side bucket.  Rows are consed during the build (so they sit
   in reverse scan order) and reversed in place exactly once, at the
   bucket's first probe hit, so the table is never rebuilt just to fix
   bucket order. *)
type bucket = { mutable b_rows : Relation.row list; mutable b_ordered : bool }

let bucket_add table key row =
  match Relation.Row_tbl.find_opt table key with
  | Some b -> b.b_rows <- row :: b.b_rows
  | None -> Relation.Row_tbl.add table key { b_rows = [ row ]; b_ordered = false }

let bucket_rows b =
  if not b.b_ordered then begin
    b.b_rows <- List.rev b.b_rows;
    b.b_ordered <- true
  end;
  b.b_rows

(* a hash-join key; [None] when a part is NULL, which matches nothing *)
let join_key fns row =
  let key = Array.of_list (List.map (fun f -> f row) fns) in
  if Array.exists Value.is_null key then None else Some key

(* A join's output: the schema of [ls @ rs] narrowed to [keep] (see
   {!Plan.t}), and the function building one output row from a left
   and a right row.  Built once per node, so the per-row work is one
   allocation of the narrowed width. *)
let join_output keep ls rs =
  let full = Schema.append ls rs in
  match keep with
  | None -> (full, Array.append)
  | Some names ->
    let idx =
      Array.of_list
        (List.map
           (fun n ->
             match Schema.index_of_opt full n with
             | Some i -> i
             | None -> exec_errorf "join keeps unknown column %s" n)
           names)
    in
    let nl = Schema.arity ls and width = Array.length idx in
    let gather lrow rrow =
      let out = Array.make width Value.Null in
      for j = 0 to width - 1 do
        let i = idx.(j) in
        out.(j) <- (if i < nl then lrow.(i) else rrow.(i - nl))
      done;
      out
    in
    (Schema.project full names, gather)

(* Find an equality conjunct of [on] whose sides resolve strictly on
   the two inputs, to drive a hash path for the outer join; the rest
   of [on] is verified per candidate pair. *)
let split_outer_condition ls rs on =
  let resolves schema e =
    try
      List.iter (fun c -> ignore (Expr.resolve schema c)) (Sql.Ast.expr_columns e);
      Sql.Ast.expr_columns e <> []
    with Expr.Unbound_column _ | Expr.Ambiguous_column _ -> false
  in
  let conjuncts = Sql.Ast.conjuncts on in
  (* [acc] holds the skipped conjuncts in reverse; rev_append restores
     their order — consing keeps the scan linear in the conjunct count *)
  let rec pick acc = function
    | [] -> None
    | (Sql.Ast.Binop (Eq, a, b) as c) :: rest ->
      if resolves ls a && resolves rs b then Some ((a, b), List.rev_append acc rest)
      else if resolves rs a && resolves ls b then
        Some ((b, a), List.rev_append acc rest)
      else pick (c :: acc) rest
    | c :: rest -> pick (c :: acc) rest
  in
  pick [] conjuncts

let run_left_outer_join ?budget lrel rrel ~on =
  let ls = Relation.schema lrel and rs = Relation.schema rrel in
  let out_schema = Schema.append ls rs in
  let nulls = Array.make (Schema.arity rs) Dirty.Value.Null in
  let out = ref [] in
  (try
     match split_outer_condition ls rs on with
  | Some ((lkey, rkey), residual) ->
    let lf = compile ls lkey and rf = compile rs rkey in
    let table = Relation.Row_tbl.create (max 16 (Relation.cardinality rrel)) in
    let add_bucket key row =
      let existing = Option.value ~default:[] (Relation.Row_tbl.find_opt table key) in
      Relation.Row_tbl.replace table key (row :: existing)
    in
    Relation.iter
      (fun rrow ->
        let key = [| rf rrow |] in
        if not (Value.is_null key.(0)) then add_bucket key rrow)
      rrel;
    let residual_pred =
      match Sql.Ast.conj residual with
      | None -> fun _ -> true
      | Some pred -> predicate out_schema pred
    in
    Relation.iter
      (fun lrow ->
        let key = [| lf lrow |] in
        let matches =
          if Value.is_null key.(0) then []
          else
            List.filter
              (fun combined -> residual_pred combined)
              (List.rev_map
                 (fun rrow -> Array.append lrow rrow)
                 (Option.value ~default:[] (Relation.Row_tbl.find_opt table key)))
        in
        match matches with
        | [] ->
          tick budget;
          out := Array.append lrow nulls :: !out
        | rows ->
          List.iter
            (fun row ->
              tick budget;
              out := row :: !out)
            (List.rev rows))
      lrel
  | None ->
    (* general nested-loop outer join *)
    let pred = predicate out_schema on in
    Relation.iter
      (fun lrow ->
        let matched = ref false in
        Relation.iter
          (fun rrow ->
            let combined = Array.append lrow rrow in
            if pred combined then begin
              matched := true;
              tick budget;
              out := combined :: !out
            end)
          rrel;
        if not !matched then begin
          tick budget;
          out := Array.append lrow nulls :: !out
        end)
      lrel
   with Budget_stop -> ());
  emit_result budget out_schema out

(* ---- main interpreter ----

   With telemetry on, every node runs under an [exec.<operator>] span
   carrying its output row and column counts; that span tree is the
   one per-operator view, read by [conquer profile], [/debug] and the
   benchmark alike.  A streamed join's span sits where the join sits
   in the plan, opens when its stream starts and closes when the
   stream ends, so its time also covers the per-row work of the
   operators above it, up to the node that consumes the stream.
   Budgets and telemetry only observe or bound the operators: every
   configuration runs the same ones. *)

type ctx = { budget : Budget.t option; jobs : int; catalog : catalog }

(* bail out of deep plans promptly when the clock has run out *)
let check_time ctx = match ctx.budget with None -> () | Some b -> Budget.check_time b

(* [f ()] under [plan]'s span, whose [rows_out]/[cols_out] are [shape]
   of the result *)
let observed plan shape f =
  if not (Telemetry.Control.enabled ()) then f ()
  else
    Telemetry.Span.with_ ~name:("exec." ^ operator_label plan) (fun () ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        Telemetry.Metrics.observe h_operator_seconds (Unix.gettimeofday () -. t0);
        let rows, cols = shape r in
        Telemetry.Metrics.inc m_operators;
        Telemetry.Metrics.inc ~n:rows m_rows_out;
        Telemetry.Span.add_attr "rows_out" (string_of_int rows);
        Telemetry.Span.add_attr "cols_out" (string_of_int cols);
        r)

let relation_shape rel = (Relation.cardinality rel, Schema.arity (Relation.schema rel))

let rec run_node ctx (plan : Plan.t) : Relation.t =
  (* a join opens its span and charges its rows itself, as its stream
     runs *)
  if streams plan then eval ctx plan
  else begin
    check_time ctx;
    let rel = observed plan relation_shape (fun () -> eval ctx (resolve_node ctx plan)) in
    match ctx.budget with
    | None -> rel
    | Some _ when per_row_charged plan -> rel
    | Some b ->
      let n = Relation.cardinality rel in
      let allowed = Budget.admit b n in
      if allowed >= n then rel
      else
        Relation.of_array (Relation.schema rel) (Array.sub (Relation.rows rel) 0 allowed)
  end

and run_child ctx plan =
  let rel = run_node ctx plan in
  (* Once a Truncate-mode budget has stopped, every node boundary
     above the stop admits 0 rows anyway — so hand parents an empty
     input instead of letting them process (then discard) a large
     partial intermediate.  This is what bounds cancellation latency:
     after the token trips mid-join, the plan unwinds without paying
     for filters/projections over millions of doomed rows. *)
  match ctx.budget with
  | Some b when Budget.exhausted b -> Relation.of_array (Relation.schema rel) [||]
  | _ -> rel

(* [plan]'s rows as a stream: a join streams; any other node is
   evaluated now and drained once the stream starts *)
and source ctx (plan : Plan.t) : sink -> unit =
  if streams plan then join ctx plan else drain (run_child ctx plan)

(* A streamed join under its span: the span counts the rows it
   pushes into [sink] *)
and join ctx (plan : Plan.t) (sink : sink) =
  check_time ctx;
  let rows = ref 0 and cols = ref 0 in
  let counted schema =
    cols := Schema.arity schema;
    let push = sink schema in
    fun row ->
      incr rows;
      push row
  in
  observed plan
    (fun () -> (!rows, !cols))
    (fun () ->
      match resolve_node ctx plan with
      | Hash_join { left; right; left_keys; right_keys; keep } ->
        hash_join ctx ~left ~right ~left_keys ~right_keys ~keep counted
      | Index_join { left; table; alias; left_keys; right_attrs; keep } ->
        index_join ctx ~left ~table ~alias ~left_keys ~right_attrs ~keep counted
      | _ -> invalid_arg "Exec.join: not a streamed join")

(* Build a table on the right input, then stream the left input
   through it.  The build side must be complete before the first probe,
   so its spans precede the probe side's. *)
and hash_join ctx ~left ~right ~left_keys ~right_keys ~keep sink =
  let rrel = run_child ctx right in
  let rs = Relation.schema rrel in
  let rf = List.map (compile rs) right_keys in
  let table = Relation.Row_tbl.create (max 16 (Relation.cardinality rrel)) in
  Relation.iter
    (fun row ->
      match join_key rf row with Some key -> bucket_add table key row | None -> ())
    rrel;
  source ctx left (fun ls ->
      let lf = List.map (compile ls) left_keys in
      let out_schema, emit = join_output keep ls rs in
      let push = sink out_schema in
      fun lrow ->
        match join_key lf lrow with
        | None -> ()
        | Some key -> (
          match Relation.Row_tbl.find_opt table key with
          | None -> ()
          | Some b ->
            List.iter
              (fun rrow ->
                tick ctx.budget;
                push (emit lrow rrow))
              (bucket_rows b)))

(* Probe the base table's persistent index on its first key attribute
   with each left row; the remaining key attributes are checked on
   each match. *)
and index_join ctx ~left ~table ~alias ~left_keys ~right_attrs ~keep sink =
  let base =
    try ctx.catalog.relation table
    with Not_found -> exec_errorf "unknown table %s" table
  in
  match right_attrs with
  | [] -> exec_errorf "index join with no key attributes"
  | first_attr :: other_attrs ->
    let index =
      match ctx.catalog.index table first_attr with
      | None -> exec_errorf "no index on %s.%s" table first_attr
      | Some index -> index
    in
    let brows = Relation.rows base in
    let other_idx =
      Array.of_list (List.map (Schema.index_of (Relation.schema base)) other_attrs)
    in
    let nrest = Array.length other_idx in
    (* the current left row's values for the remaining key attributes,
       evaluated once per left row with matches *)
    let rest_vals = Array.make nrest Value.Null in
    let rec residual_ok rrow j =
      j >= nrest
      || Value.equal rest_vals.(j) rrow.(other_idx.(j)) && residual_ok rrow (j + 1)
    in
    source ctx left (fun ls ->
        let first_f, rest_f =
          match List.map (compile ls) left_keys with
          | [] -> exec_errorf "index join with no probe keys"
          | f :: fs -> (f, Array.of_list fs)
        in
        (* fill [rest_vals]; false when one is NULL, which equals
           nothing, as in a hash join *)
        let rec rest_known lrow j =
          j >= nrest
          ||
          let v = rest_f.(j) lrow in
          rest_vals.(j) <- v;
          (not (Value.is_null v)) && rest_known lrow (j + 1)
        in
        let out_schema, emit =
          join_output keep ls (Schema.rename ~prefix:alias (Relation.schema base))
        in
        let push = sink out_schema in
        fun lrow ->
          let probe = first_f lrow in
          if not (Value.is_null probe) then begin
            let k = Index.find index probe in
            if k >= 0 && rest_known lrow 0 then begin
              for p = Index.offset index k to Index.offset index (k + 1) - 1 do
                let rrow = brows.(Index.row_id index p) in
                if residual_ok rrow 0 then begin
                  tick ctx.budget;
                  push (emit lrow rrow)
                end
              done
            end
          end)

(* ---- uncorrelated subqueries ----

   Subquery expressions are resolved when the node holding them is
   evaluated: the subquery is planned and run against the catalog's
   base tables, and its result replaces the expression (a value list
   for IN, a boolean for EXISTS, a scalar for value subqueries).
   Correlated references fail inside the subquery's own planning with
   an unbound-column error. *)

and eval_subquery ctx (q : Sql.Ast.query) : Relation.t =
  let env : Planner.env =
    {
      schema_of =
        (fun name ->
          match ctx.catalog.relation name with
          | rel -> Some (Relation.schema rel)
          | exception Not_found -> None);
      stats_of = (fun _ -> None);
      has_index = (fun table attr -> ctx.catalog.index table attr <> None);
    }
  in
  let plan =
    try Planner.plan env q
    with Planner.Plan_error msg -> exec_errorf "in subquery: %s" msg
  in
  run_node ctx plan

and scalar_of_subquery ctx q =
  let rel = eval_subquery ctx q in
  if Schema.arity (Relation.schema rel) <> 1 then
    exec_errorf "scalar subquery must return one column";
  match Relation.cardinality rel with
  | 0 -> Value.Null
  | 1 -> (Relation.get rel 0).(0)
  | n -> exec_errorf "scalar subquery returned %d rows" n

and resolve_expr ctx (e : Sql.Ast.expr) : Sql.Ast.expr =
  let go = resolve_expr ctx in
  match e with
  | In_query (x, q) ->
    let rel = eval_subquery ctx q in
    if Schema.arity (Relation.schema rel) <> 1 then
      exec_errorf "IN subquery must return one column";
    let values =
      Relation.fold
        (fun acc row -> if Value.is_null row.(0) then acc else row.(0) :: acc)
        [] rel
    in
    In_list (go x, List.rev values)
  | Exists q ->
    Lit (Value.Bool (not (Relation.is_empty (eval_subquery ctx q))))
  | Scalar_subquery q -> Lit (scalar_of_subquery ctx q)
  | Lit _ | Col _ | Agg (_, None) -> e
  | Agg (f, Some a) -> Agg (f, Some (go a))
  | Unop (op, a) -> Unop (op, go a)
  | Binop (op, a, b) -> Binop (op, go a, go b)
  | Like (a, p) -> Like (go a, p)
  | Not_like (a, p) -> Not_like (go a, p)
  | In_list (a, vs) -> In_list (go a, vs)
  | Between (a, b, c) -> Between (go a, go b, go c)
  | Is_null a -> Is_null (go a)
  | Is_not_null a -> Is_not_null (go a)

and resolve_if_needed ctx e =
  if Sql.Ast.has_subqueries e then resolve_expr ctx e else e

and resolve_node ctx (plan : Plan.t) : Plan.t =
  let r = resolve_if_needed ctx in
  match plan with
  | Scan _ | Distinct _ | Limit _ -> plan
  | Filter { input; pred } -> Filter { input; pred = r pred }
  | Project { input; items } ->
    Project { input; items = List.map (fun (e, n) -> (r e, n)) items }
  | Hash_join j ->
    Hash_join
      {
        j with
        left_keys = List.map r j.left_keys;
        right_keys = List.map r j.right_keys;
      }
  | Index_join j -> Index_join { j with left_keys = List.map r j.left_keys }
  | Left_outer_join { left; right; on } ->
    Left_outer_join { left; right; on = r on }
  | Cross _ -> plan
  | Aggregate { input; group_by; items; having } ->
    Aggregate
      {
        input;
        group_by = List.map r group_by;
        items = List.map (fun (e, n) -> (r e, n)) items;
        having = Option.map r having;
      }
  | Sort { input; keys } ->
    Sort { input; keys = List.map (fun (e, d) -> (r e, d)) keys }

and eval ctx (plan : Plan.t) : Relation.t =
  let cancel = region_cancel ctx.budget in
  let budget = ctx.budget and jobs = ctx.jobs in
  match plan with
  | Scan { table; alias } ->
    let rel =
      try ctx.catalog.relation table
      with Not_found -> exec_errorf "unknown table %s" table
    in
    Relation.with_schema (Schema.rename ~prefix:alias (Relation.schema rel)) rel
  | Filter { input; pred } ->
    let rel = run_child ctx input in
    run_filter ?cancel ~jobs (predicate (Relation.schema rel) pred) rel
  | Project { input; items } ->
    let rel = run_child ctx input in
    let schema = Relation.schema rel in
    let fns = Array.of_list (List.map (fun (e, _) -> compile schema e) items) in
    let rows = run_map_rows ?cancel ~jobs (project_row fns) rel in
    Relation.of_array (infer_schema (List.map snd items) rows) rows
  | Hash_join _ | Index_join _ -> collect budget (join ctx plan)
  | Left_outer_join { left; right; on } ->
    run_left_outer_join ?budget (run_child ctx left) (run_child ctx right) ~on
  | Cross (a, b) ->
    let ra = run_child ctx a and rb = run_child ctx b in
    let schema = Schema.append (Relation.schema ra) (Relation.schema rb) in
    let out = ref [] in
    (try
       Relation.iter
         (fun rowa ->
           Relation.iter
             (fun rowb ->
               tick budget;
               out := Array.append rowa rowb :: !out)
             rb)
         ra
     with Budget_stop -> ());
    emit_result budget schema out
  | Aggregate { input; group_by; items; having } ->
    run_aggregate (source ctx input) ~group_by ~items ~having
  | Sort { input; keys } ->
    let rel = run_child ctx input in
    let schema = Relation.schema rel in
    let compiled = List.map (fun (e, desc) -> (compile schema e, desc)) keys in
    let cmp a b =
      let rec go = function
        | [] -> 0
        | (f, desc) :: rest ->
          let c = Value.compare (f a) (f b) in
          if c <> 0 then if desc then -c else c else go rest
      in
      go compiled
    in
    Relation.sort_by cmp rel
  | Distinct input -> Relation.distinct (run_child ctx input)
  | Limit (input, n) ->
    let rel = run_child ctx input in
    let keep = min n (Relation.cardinality rel) in
    Relation.of_array (Relation.schema rel)
      (Array.sub (Relation.rows rel) 0 keep)

(* A Truncate-mode region aborted by its tripped token: record the
   stop on the budget and evaluate the plan again.  With the budget
   stopped, every node boundary hands its parent an empty input, so
   the second pass is a cheap walk over the plan that yields the empty
   answer, with the output schema, that a stop observed at an earlier
   node boundary would have given. *)
let run_to_stop budget f =
  try f () with
  | Cancel.Cancelled _ as e -> (
    match budget with
    | Some b when Budget.mode b = Budget.Truncate ->
      Budget.check_time b;
      f ()
    | _ -> raise e)

let run ?budget ?(jobs = 1) catalog plan =
  let ctx = { budget; jobs; catalog } in
  (* evaluation-time type errors surface as engine errors *)
  try run_to_stop budget (fun () -> run_node ctx plan)
  with Expr.Type_error msg -> raise (Exec_error msg)
