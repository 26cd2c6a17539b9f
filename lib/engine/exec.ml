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
   emit loop, so the operator (for a streamed stage, the node consuming
   the stream) finishes with the rows produced so far. *)

exception Budget_stop

let tick budget =
  match budget with
  | None -> ()
  | Some b ->
    Telemetry.Metrics.inc m_budget_ticks;
    if Budget.admit b 1 = 0 then raise Budget_stop

(* ---- growable row buffers ----

   A node that builds its output row by row (a collected stream,
   Project, the outer join, Cross) pushes into one array that doubles
   when full. *)

type rows_buf = { mutable buf : Relation.row array; mutable len : int }

let new_buf () = { buf = [||]; len = 0 }

let push_row b row =
  if b.len = Array.length b.buf then begin
    let grown = Array.make (max 64 (2 * b.len)) [||] in
    Array.blit b.buf 0 grown 0 b.len;
    b.buf <- grown
  end;
  Array.unsafe_set b.buf b.len row;
  b.len <- b.len + 1

let buf_rows b = if b.len = Array.length b.buf then b.buf else Array.sub b.buf 0 b.len

(* The rows a node built row by row.  A cancelled execution's
   partial rows are discarded at every node boundary above anyway, so
   it answers none. *)
let buffered budget schema b =
  match budget with
  | Some bg when Budget.cancelled bg -> Relation.of_array schema [||]
  | _ -> Relation.of_array schema (buf_rows b)

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
  try Expr.compile_pred schema e with
  | Expr.Unbound_column c -> exec_errorf "unbound column %s" c
  | Expr.Ambiguous_column c -> exec_errorf "ambiguous column %s" c
  | Expr.Type_error msg -> raise (Exec_error msg)

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

(* ---- the grouping kernel ----

   One hash-aggregate for every GROUP BY.  It takes its input row by
   row, in order, from a stream.  Its per-row work allocates nothing
   beyond what the key and argument expressions themselves return:
   - keys are evaluated into one reused scratch buffer, and
     {!Index.Keys} numbers them (copying a key only when it opens a
     new group), as it numbers an index's keys;
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
  keys : Index.Keys.t;  (** group ids are key numbers *)
  mutable cap : int;  (** groups the accumulators have room for *)
  accs : acc array;
}

let new_groups arity funs =
  let cap = 16 in
  { arity; keys = Index.Keys.create arity; cap; accs = Array.map (fun f -> new_acc f cap) funs }

(* the key's group, opened (key copied) when it is new; the
   accumulators double when a new group id reaches their capacity *)
let group_of g key =
  let gid = Index.Keys.find_or_add g.keys key in
  if gid = g.cap then begin
    g.cap <- 2 * g.cap;
    Array.iter (fun acc -> grow_acc acc g.cap) g.accs
  end;
  gid

(* the output row of group [gid]: its key, then each aggregate *)
let group_row g gid =
  let row = Array.make (g.arity + Array.length g.accs) Value.Null in
  Index.Keys.blit g.keys gid row;
  Array.iteri (fun a acc -> row.(g.arity + a) <- finish acc gid) g.accs;
  row

(* an aggregate argument: count-star or a compiled expression *)
type agg_arg = Star_arg | Expr_arg of (Relation.row -> Value.t)

(* evaluate [fns] over [row] into [scratch]; false when a part is NULL
   (which, in a join key, matches nothing) *)
let eval_key fns scratch row =
  let known = ref true in
  for j = 0 to Array.length fns - 1 do
    let v = fns.(j) row in
    scratch.(j) <- v;
    if Value.is_null v then known := false
  done;
  !known

let feed_row g gid args row =
  for a = 0 to Array.length args - 1 do
    match args.(a) with
    | Star_arg -> count_star g.accs.(a) gid
    | Expr_arg f -> feed g.accs.(a) gid (f row)
  done

(* ---- streams ----

   Filter, hash joins and index joins push their rows, in order, into
   their consumer: a [sink], called once with the stream's schema
   before any row, returns the function that takes the rows.  So a
   pipeline runs as one loop from one materialized source (Scan, Sort,
   an Aggregate's output, Distinct, Limit, the outer join, Cross),
   which {!drain} pushes, to one breaker (after Neumann, VLDB 2011):
   Aggregate groups the rows, Project fills its output array, and any
   other consumer collects them into one growable array. *)

type sink = Schema.t -> Relation.row -> unit

let streams (plan : Plan.t) =
  match plan with
  | Filter _ | Hash_join _ | Index_join _ -> true
  | Scan _ | Project _ | Left_outer_join _ | Cross _ | Aggregate _ | Sort _ | Distinct _
  | Limit _ ->
    false

(* Push a materialized relation into [sink].  This is the loop that
   drives a stream, so a Truncate stop raised by any stage above ends
   the whole stream here, and every consumer keeps what it received.
   With a budget it also checks the clock and the cancellation token
   every 1024 rows: a stage that pushes nothing on (a selective filter)
   charges nothing, yet a deadline inside it must still stop it. *)
let drain budget rel (sink : sink) =
  let push = sink (Relation.schema rel) in
  let poll = function
    | Some b ->
      Budget.check_time b;
      if Budget.exhausted b then raise_notrace Budget_stop
    | None -> ()
  in
  try Array.iteri (fun i row -> if i land 1023 = 0 then poll budget; push row) (Relation.rows rel)
  with Budget_stop -> ()

(* The rows of the stream [produce], kept in one growable array *)
let collect budget (produce : sink -> unit) =
  let schema = ref None and out = new_buf () in
  produce (fun s ->
      schema := Some s;
      push_row out);
  buffered budget (Option.get !schema) out

(* Project: one output row per input row, built straight into the
   output array; the schema is inferred from the rows *)
let run_project (produce : sink -> unit) items =
  let out = new_buf () in
  produce (fun schema ->
      let fns = Array.of_list (List.map (fun (e, _) -> compile schema e) items) in
      fun row -> push_row out (project_row fns row));
  let rows = buf_rows out in
  Relation.of_array (infer_schema (List.map snd items) rows) rows

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
        ignore (eval_key key_fns scratch row);
        feed_row g (group_of g scratch) args row);
  (* SQL semantics: an ungrouped aggregate over an empty input yields
     a single row of initial aggregate values *)
  if g.arity = 0 && Index.Keys.count g.keys = 0 then ignore (group_of g [||]);
  aggregate_output ~group_by ~items ~having ~aggs
    (Array.init (Index.Keys.count g.keys) (group_row g))

(* ---- joins ---- *)

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

(* A left row's candidates are the right rows of its key, in build
   order, when [on] has an equality conjunct over the two inputs (the
   rest of [on] is checked per pair); otherwise every right row.  A
   left row with no match comes out once, padded with NULLs. *)
let run_left_outer_join ?budget lrel rrel ~on =
  let ls = Relation.schema lrel and rs = Relation.schema rrel in
  let out_schema = Schema.append ls rs in
  let nulls = Array.make (Schema.arity rs) Dirty.Value.Null in
  let out = new_buf () in
  let candidates, pred =
    match split_outer_condition ls rs on with
    | Some ((lkey, rkey), residual) ->
      let lf = [| compile ls lkey |] and rrows = Relation.rows rrel in
      let index = Index.of_rows [| compile rs rkey |] rrows in
      let scratch = [| Value.Null |] in
      let candidates lrow f =
        let k = if eval_key lf scratch lrow then Index.find index scratch else -1 in
        if k >= 0 then
          for p = index.offsets.(k) to index.offsets.(k + 1) - 1 do
            f rrows.(index.row_ids.(p))
          done
      in
      ( candidates,
        match Sql.Ast.conj residual with
        | None -> fun _ -> true
        | Some pred -> predicate out_schema pred )
    | None -> ((fun _ f -> Relation.iter f rrel), predicate out_schema on)
  in
  let emit row =
    tick budget;
    push_row out row
  in
  (try
     Relation.iter
       (fun lrow ->
         let matched = ref false in
         candidates lrow (fun rrow ->
             let combined = Array.append lrow rrow in
             if pred combined then begin
               matched := true;
               emit combined
             end);
         if not !matched then emit (Array.append lrow nulls))
       lrel
   with Budget_stop -> ());
  buffered budget out_schema out

(* ---- ORDER BY ----

   A stable sort without a comparator.  Each key is evaluated once per
   row and numbered with {!Index.Keys}, whose equality is
   [Value.equal], so the values [Value.compare] calls equal ([Int 2]
   and [Float 2.0], 0.0 and -0.0, every NaN) share one number.  Only
   the d distinct values are sorted, with [Value.compare]; a value's
   place in that order is its rank (DESC: d - 1 - rank).  One stable
   counting pass per key, last key first (LSD radix), then orders the
   row indices, and the first key's pass places the rows themselves.
   Besides the output it holds one int array of ranks, reused across
   keys, and a permutation of the rows for two keys (two permutations
   for three keys or more). *)

(* Write each row's rank under the key [f] into [ids]; the number of
   distinct values *)
let rank_key f desc rows ids =
  let keys = Index.Keys.create 1 and cell = [| Value.Null |] in
  for i = 0 to Array.length rows - 1 do
    cell.(0) <- f rows.(i);
    ids.(i) <- Index.Keys.find_or_add keys cell
  done;
  let d = Index.Keys.count keys in
  let values = Array.make d Value.Null in
  for k = 0 to d - 1 do
    Index.Keys.blit keys k cell;
    values.(k) <- cell.(0)
  done;
  Array.sort Value.compare values;
  let rank = Array.make d 0 in
  for r = 0 to d - 1 do
    cell.(0) <- values.(r);
    rank.(Index.Keys.find_or_add keys cell) <- (if desc then d - 1 - r else r)
  done;
  for i = 0 to Array.length ids - 1 do
    ids.(i) <- rank.(ids.(i))
  done;
  d

(* One stable counting pass over the ranks [ids] (below [d]): visiting
   the rows in the order [src] (the input order when [None]), [place
   pos i] puts row [i] at position [pos]. *)
let counting_pass ids d src place =
  let n = Array.length ids in
  let next = Array.make (d + 1) 0 in
  for i = 0 to n - 1 do
    let r = ids.(i) + 1 in
    next.(r) <- next.(r) + 1
  done;
  for r = 1 to d do
    next.(r) <- next.(r) + next.(r - 1)
  done;
  let visit i =
    let r = ids.(i) in
    place next.(r) i;
    next.(r) <- next.(r) + 1
  in
  match src with
  | None -> for i = 0 to n - 1 do visit i done
  | Some src -> for p = 0 to n - 1 do visit src.(p) done

(* [rows] ordered by [keys] (key function, DESC), ties in input order *)
let sort_rows keys rows =
  let n = Array.length rows and m = Array.length keys in
  if m = 0 then Array.copy rows
  else begin
    let ids = Array.make n 0 and out = Array.make n [||] in
    (* [src] is the order the passes so far left the rows in, [None]
       being the input order; [spare] is a permutation free for reuse *)
    let src = ref None and spare = ref None in
    for j = m - 1 downto 0 do
      let f, desc = keys.(j) in
      let d = rank_key f desc rows ids in
      if j = 0 then counting_pass ids d !src (fun pos i -> out.(pos) <- rows.(i))
      else begin
        let perm = match !spare with Some p -> p | None -> Array.make n 0 in
        counting_pass ids d !src (fun pos i -> perm.(pos) <- i);
        spare := !src;
        src := Some perm
      end
    done;
    out
  end

(* ---- main interpreter ----

   With telemetry on, every node runs under an [exec.<operator>] span
   carrying its output row and column counts; that span tree is the
   one per-operator view, read by [conquer profile], [/debug] and the
   benchmark alike.  A streamed stage's span sits where the stage sits
   in the plan, opens when its stream starts and closes when the
   stream ends, so its time also covers the per-row work of the
   stages above it, up to the node that consumes the stream.
   Budgets and telemetry only observe or bound the operators: every
   configuration runs the same ones. *)

type ctx = { budget : Budget.t option; catalog : catalog }

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
  (* a streamed stage opens its span and charges its rows itself, as
     its stream runs *)
  if streams plan then eval ctx plan
  else begin
    check_time ctx;
    let rel = observed plan relation_shape (fun () -> eval ctx (resolve_node ctx plan)) in
    match ctx.budget, plan with
    | None, _ -> rel
    | Some _, (Left_outer_join _ | Cross _) -> rel (* their emit loops tick per row *)
    | Some b, _ ->
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
     for the work above it over millions of doomed rows. *)
  match ctx.budget with
  | Some b when Budget.exhausted b -> Relation.of_array (Relation.schema rel) [||]
  | _ -> rel

(* [plan]'s rows as a stream: a streamed stage streams; any other node
   is evaluated now and drained once the stream starts *)
and source ctx (plan : Plan.t) : sink -> unit =
  if streams plan then stream ctx plan else drain ctx.budget (run_child ctx plan)

(* A streamed stage under its span: the span counts the rows it pushes
   into [sink] *)
and stream ctx (plan : Plan.t) (sink : sink) =
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
      | Filter { input; pred } -> filter ctx ~input ~pred counted
      | Hash_join { left; right; left_keys; right_keys; keep } ->
        hash_join ctx ~left ~right ~left_keys ~right_keys ~keep counted
      | Index_join { left; table; alias; left_keys; right_attrs; keep } ->
        index_join ctx ~left ~table ~alias ~left_keys ~right_attrs ~keep counted
      | _ -> invalid_arg "Exec.stream: not a streamed stage")

(* Pass the input's matching rows on, each charged as it passes *)
and filter ctx ~input ~pred sink =
  source ctx input (fun schema ->
      let p = predicate schema pred in
      let push = sink schema in
      fun row ->
        if p row then begin
          tick ctx.budget;
          push row
        end)

(* Index the right input on all its keys, then stream the left input
   through it.  The build side must be complete before the first probe,
   so its spans precede the probe side's. *)
and hash_join ctx ~left ~right ~left_keys ~right_keys ~keep sink =
  let rrel = run_child ctx right in
  let rs = Relation.schema rrel and rrows = Relation.rows rrel in
  let index = Index.of_rows (Array.of_list (List.map (compile rs) right_keys)) rrows in
  probe_join ctx ~left ~left_keys ~index ~rrows ~rs ~rest:[||] ~keep sink

(* Stream the left input through the base table's persistent index on
   its first key attribute; the remaining key attributes are checked
   on each match. *)
and index_join ctx ~left ~table ~alias ~left_keys ~right_attrs ~keep sink =
  let base =
    try ctx.catalog.relation table
    with Not_found -> exec_errorf "unknown table %s" table
  in
  if right_attrs = [] || List.length left_keys <> List.length right_attrs then
    exec_errorf "index join with %d probe keys for %d key attributes" (List.length left_keys)
      (List.length right_attrs);
  let first_attr = List.hd right_attrs and schema = Relation.schema base in
  let index =
    match ctx.catalog.index table first_attr with
    | None -> exec_errorf "no index on %s.%s" table first_attr
    | Some index -> index
  in
  let rest = Array.of_list (List.map (Schema.index_of schema) (List.tl right_attrs)) in
  probe_join ctx ~left ~left_keys ~index ~rrows:(Relation.rows base)
    ~rs:(Schema.rename ~prefix:alias schema) ~rest ~keep sink

(* The probe loop of both joins.  Each left row's [left_keys] are
   evaluated into one scratch array; a key with a NULL part matches
   nothing, so it is rejected before the lookup.  The first keys are
   looked up in [index] over [rrows]; the last [Array.length rest] are
   residuals, each equal to its right row's column in [rest].  A probe
   writes only to the scratch array, so an index the daemon's domains
   share is only read. *)
and probe_join ctx ~left ~left_keys ~index ~rrows ~rs ~rest ~keep sink =
  source ctx left (fun ls ->
      let fns = Array.of_list (List.map (compile ls) left_keys) in
      let scratch = Array.make (Array.length fns) Value.Null in
      let first_rest = Array.length fns - Array.length rest in
      let rec rest_ok rrow j =
        j >= Array.length rest
        || Value.equal scratch.(first_rest + j) rrow.(rest.(j)) && rest_ok rrow (j + 1)
      in
      let out_schema, emit = join_output keep ls rs in
      let push = sink out_schema in
      fun lrow ->
        if eval_key fns scratch lrow then begin
          let k = Index.find index scratch in
          if k >= 0 then
            for p = index.offsets.(k) to index.offsets.(k + 1) - 1 do
              let rrow = rrows.(index.row_ids.(p)) in
              if rest_ok rrow 0 then begin
                tick ctx.budget;
                push (emit lrow rrow)
              end
            done
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
  let budget = ctx.budget in
  match plan with
  | Scan { table; alias } ->
    let rel =
      try ctx.catalog.relation table
      with Not_found -> exec_errorf "unknown table %s" table
    in
    Relation.with_schema (Schema.rename ~prefix:alias (Relation.schema rel)) rel
  | Filter _ | Hash_join _ | Index_join _ -> collect budget (stream ctx plan)
  | Project { input; items } -> run_project (source ctx input) items
  | Left_outer_join { left; right; on } ->
    run_left_outer_join ?budget (run_child ctx left) (run_child ctx right) ~on
  | Cross (a, b) ->
    let ra = run_child ctx a and rb = run_child ctx b in
    let schema = Schema.append (Relation.schema ra) (Relation.schema rb) in
    let out = new_buf () in
    (try
       Relation.iter
         (fun rowa ->
           Relation.iter
             (fun rowb ->
               tick budget;
               push_row out (Array.append rowa rowb))
             rb)
         ra
     with Budget_stop -> ());
    buffered budget schema out
  | Aggregate { input; group_by; items; having } ->
    run_aggregate (source ctx input) ~group_by ~items ~having
  | Sort { input; keys } ->
    let rel = run_child ctx input in
    let schema = Relation.schema rel in
    let compiled = Array.of_list (List.map (fun (e, desc) -> (compile schema e, desc)) keys) in
    Relation.of_array schema (sort_rows compiled (Relation.rows rel))
  | Distinct input -> Relation.distinct (run_child ctx input)
  | Limit (input, n) ->
    let rel = run_child ctx input in
    let keep = min n (Relation.cardinality rel) in
    Relation.of_array (Relation.schema rel)
      (Array.sub (Relation.rows rel) 0 keep)

let run ?budget catalog plan =
  let ctx = { budget; catalog } in
  (* evaluation-time type errors surface as engine errors *)
  try run_node ctx plan with Expr.Type_error msg -> raise (Exec_error msg)
