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
    ~help:"rows materialized by plan operators (intermediates included)"

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

   Operators charge the budget per materialized row.  In [Raise] mode
   {!Budget.admit} raises {!Budget.Exceeded} itself; in [Truncate]
   mode it stops admitting rows, and the local [Budget_stop] exception
   unwinds the operator's emit loop so it finishes with the partial
   output produced so far. *)

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
  let rec go = function
    | [] -> Value.TString
    | row :: rest -> (
      match Value.type_of row.(j) with Some ty -> ty | None -> go rest)
  in
  go rows

let infer_schema names rows =
  Schema.make (List.mapi (fun j name -> (name, infer_column_ty rows j)) names)

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
    Relation.create (infer_schema (List.map snd items) finished_rows) finished_rows
  else begin
    let inter_names =
      List.mapi (fun i _ -> Printf.sprintf "#g%d" i) group_by
      @ List.mapi (fun i _ -> Printf.sprintf "#a%d" i) aggs
    in
    let inter_schema = infer_schema inter_names finished_rows in
    let inter = Relation.create inter_schema finished_rows in
    let inter =
      match having with
      | None -> inter
      | Some h ->
        let h' = rewrite_grouped ~group_by ~aggs h in
        Relation.filter (predicate inter_schema h') inter
    in
    let out_names = List.map snd items in
    let out_fns = List.map (fun (e, _) -> compile inter_schema e) rewritten_items in
    let out_rows =
      List.map
        (fun row -> Array.of_list (List.map (fun f -> f row) out_fns))
        (Relation.row_list inter)
    in
    Relation.create (infer_schema out_names out_rows) out_rows
  end

module Key = struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec loop i = i >= Array.length a || (Value.equal a.(i) b.(i) && loop (i + 1)) in
    loop 0

  let hash a = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 a
end

module Ktbl = Hashtbl.Make (Key)

(* ---- partition-parallel helpers ----

   Operators with enough rows split their input into contiguous
   chunks, evaluate the chunks on the domain pool, and concatenate the
   per-chunk results in chunk order — so the output row order (and
   hence every downstream result) is bit-identical to a serial run.
   Small inputs stay serial: below [Parallel.min_rows_per_chunk] per
   requested job the handoff costs more than it saves. *)

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

(* positive partition id for a group/join key *)
let key_pid ~nparts key = Key.hash key land max_int mod nparts

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

(* parallel row mapping (Project) over row ranges; order-preserving *)
let run_map_rows ?cancel ~jobs f rel =
  let rows = Relation.rows rel in
  let n = Array.length rows in
  if not (use_parallel ~jobs n) then
    List.map (polled cancel f) (Array.to_list rows)
  else begin
    let ranges = chunk_ranges ~jobs n in
    let parts =
      Parallel.init ?cancel ~jobs (Array.length ranges) (fun ci ->
          let lo, len = ranges.(ci) in
          List.init len (fun i -> f rows.(lo + i)))
    in
    List.concat (Array.to_list parts)
  end

(* ---- the grouping kernel ----

   One hash-aggregate for every GROUP BY, serial or partitioned.  Its
   per-row work allocates nothing beyond what the key and argument
   expressions themselves return:
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

(* A finalizer for 63-bit ints: every input bit reaches the low bits
   the slot mask uses and the high bits the partition id uses. *)
let mix x =
  let x = (x lxor (x lsr 32)) * 0x2545F4914F6CDD1D in
  let x = (x lxor (x lsr 29)) * 0x1CE4E5B9AE5F1 in
  x lxor (x lsr 32)

(* A hash that allocates nothing and agrees with [Value.equal]: an
   integral float in the int range hashes as that int, so [Int 2] and
   [Float 2.0] (and [Float (-0.0)] and [Int 0]) meet; every NaN hashes
   alike.  [Value.hash] would box [float_of_int i] for every int. *)
let hash_value (v : Value.t) =
  match v with
  | Null -> 0x3A4F
  | Bool b -> if b then 0x1B3 else 0x2C1
  | Int i -> mix i
  | Float f ->
    if Float.is_integer f && f >= -0x1p62 && f < 0x1p62 then mix (int_of_float f)
    else if Float.is_nan f then 0x7FF8
    else mix (Int64.to_int (Int64.bits_of_float f))
  | String s -> mix (Hashtbl.hash s)
  | Date d -> mix (d lxor 0x5BD1E995)

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
  mutable mask : int;  (** slot count - 1 *)
  mutable slot_hash : int array;
  mutable slot_gid : int array;  (** -1 = empty slot *)
  mutable count : int;  (** groups so far; ids are [0 .. count - 1] *)
  mutable keys : Value.t array;  (** [arity] values per group *)
  mutable first : int array;  (** each group's first row index *)
  accs : acc array;
}

let new_groups arity funs =
  let cap = 16 in
  {
    arity;
    mask = (2 * cap) - 1;
    slot_hash = Array.make (2 * cap) 0;
    slot_gid = Array.make (2 * cap) (-1);
    count = 0;
    keys = Array.make (arity * cap) Value.Null;
    first = Array.make cap 0;
    accs = Array.map (fun f -> new_acc f cap) funs;
  }

let rec free_slot slot_gid mask i =
  if slot_gid.(i) < 0 then i else free_slot slot_gid mask ((i + 1) land mask)

(* double the group capacity and the slot table (kept at most half
   full), re-placing every group by its stored hash *)
let grow g =
  let cap = 2 * Array.length g.first in
  g.keys <- grow_values g.keys (g.arity * cap);
  g.first <- grow_ints g.first cap;
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
let insert g i src sofs h row =
  let gid = g.count in
  g.count <- gid + 1;
  g.slot_hash.(i) <- h;
  g.slot_gid.(i) <- gid;
  Array.blit src sofs g.keys (gid * g.arity) g.arity;
  g.first.(gid) <- row;
  gid

(* the group of the key [src.(sofs) .. src.(sofs + arity - 1)] with
   hash [h], opened (key copied, first row [row]) when it is new;
   top-level and tail-recursive, so a lookup allocates nothing *)
let rec find_or_add g src sofs h row i =
  let gid = g.slot_gid.(i) in
  if gid < 0 then
    if g.count < Array.length g.first then insert g i src sofs h row
    else begin
      grow g;
      insert g (free_slot g.slot_gid g.mask (h land g.mask)) src sofs h row
    end
  else if g.slot_hash.(i) = h && same_key g.keys (gid * g.arity) src sofs 0 g.arity
  then gid
  else find_or_add g src sofs h row ((i + 1) land g.mask)

let group_of g src sofs h row = find_or_add g src sofs h row (h land g.mask)

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
    h := (!h * 0x9E3779B1) + hash_value v
  done;
  mix !h

let feed_row g gid args row =
  for a = 0 to Array.length args - 1 do
    match args.(a) with
    | Star_arg -> count_star g.accs.(a) gid
    | Expr_arg f -> feed g.accs.(a) gid (f row)
  done

let group_serial ~key_fns ~funs ~args rows =
  let arity = Array.length key_fns in
  let g = new_groups arity funs in
  let scratch = Array.make arity Value.Null in
  for i = 0 to Array.length rows - 1 do
    let row = rows.(i) in
    feed_row g (group_of g scratch 0 (key_hash key_fns scratch row) i) args row
  done;
  (* SQL semantics: an ungrouped aggregate over an empty input yields
     a single row of initial aggregate values *)
  if arity = 0 && g.count = 0 then ignore (group_of g scratch 0 (mix 0) 0);
  List.init g.count (group_row g)

(* Parallel grouping partitions GROUPS (by key hash), not rows.  Row
   chunks hash every row's key in parallel; then each partition runs
   the kernel over the rows of its groups in original row order,
   evaluating their keys and arguments itself, so per-group
   accumulation (float order included) is exactly the serial one.
   Partitions' groups are merged by first-occurrence row index, which
   recovers the serial group order: the whole operator is
   bit-identical to serial.  Keys are evaluated twice (to hash, then
   to group), which costs less than keeping every row's keys and
   argument values in shared arrays: those boxed values would all be
   promoted out of the minor heap. *)
let group_partitioned ?cancel ~jobs ~key_fns ~funs ~args rows =
  let n = Array.length rows and arity = Array.length key_fns in
  let hashes = Array.make n 0 in
  let ranges = chunk_ranges ~jobs n in
  Parallel.run ?cancel ~jobs (Array.length ranges) (fun ci ->
      let lo, len = ranges.(ci) in
      let scratch = Array.make arity Value.Null in
      for i = lo to lo + len - 1 do
        hashes.(i) <- key_hash key_fns scratch rows.(i)
      done);
  (* row indices bucketed by partition, ascending within each *)
  let nparts = min jobs Parallel.max_jobs in
  let pid i = (hashes.(i) lsr 32) mod nparts in
  let starts = Array.make (nparts + 1) 0 in
  for i = 0 to n - 1 do
    let p = pid i in
    starts.(p + 1) <- starts.(p + 1) + 1
  done;
  for p = 1 to nparts do
    starts.(p) <- starts.(p) + starts.(p - 1)
  done;
  let order = Array.make n 0 and fill = Array.sub starts 0 nparts in
  for i = 0 to n - 1 do
    let p = pid i in
    order.(fill.(p)) <- i;
    fill.(p) <- fill.(p) + 1
  done;
  let parts =
    Parallel.init ?cancel ~jobs nparts (fun p ->
        let g = new_groups arity funs in
        let scratch = Array.make arity Value.Null in
        for k = starts.(p) to starts.(p + 1) - 1 do
          let i = order.(k) in
          let row = rows.(i) in
          for j = 0 to arity - 1 do
            scratch.(j) <- key_fns.(j) row
          done;
          feed_row g (group_of g scratch 0 hashes.(i) i) args row
        done;
        g)
  in
  (* merge by first-occurrence row index *)
  let total = Array.fold_left (fun acc g -> acc + g.count) 0 parts in
  let out = Array.make total [||] and next = Array.make nparts 0 in
  for k = 0 to total - 1 do
    let best = ref (-1) in
    for p = 0 to nparts - 1 do
      if next.(p) < parts.(p).count
         && (!best < 0
            || parts.(p).first.(next.(p)) < parts.(!best).first.(next.(!best)))
      then best := p
    done;
    out.(k) <- group_row parts.(!best) next.(!best);
    next.(!best) <- next.(!best) + 1
  done;
  Array.to_list out

let run_aggregate ?cancel ~jobs input ~group_by ~items ~having =
  let in_schema = Relation.schema input in
  let key_fns = Array.of_list (List.map (compile in_schema) group_by) in
  let aggs = collect_aggs (List.map fst items @ Option.to_list having) in
  let funs, args =
    Array.split
      (Array.of_list
         (List.map
            (fun e ->
              match (e : Sql.Ast.expr) with
              | Agg (f, None) -> (f, Star_arg)
              | Agg (f, Some arg) -> (f, Expr_arg (compile in_schema arg))
              | _ -> assert false)
            aggs))
  in
  let rows = Relation.rows input in
  (* ungrouped aggregates have a single group and stay serial *)
  let finished_rows =
    if Array.length key_fns > 0 && use_parallel ~jobs (Array.length rows) then
      group_partitioned ?cancel ~jobs ~key_fns ~funs ~args rows
    else group_serial ~key_fns ~funs ~args rows
  in
  aggregate_output ~group_by ~items ~having ~aggs finished_rows

(* ---- joins ---- *)

(* A build-side bucket.  Rows are consed during the build (so they sit
   in reverse scan order) and reversed in place exactly once — lazily
   at the bucket's first probe hit in the serial path, eagerly after
   the partition build in the parallel path (probes there run on other
   domains and must not mutate).  Either way we never rebuild the
   whole table just to fix bucket order. *)
type bucket = { mutable b_rows : Relation.row list; mutable b_ordered : bool }

let bucket_add table key row =
  match Ktbl.find_opt table key with
  | Some b -> b.b_rows <- row :: b.b_rows
  | None -> Ktbl.add table key { b_rows = [ row ]; b_ordered = false }

let bucket_rows b =
  if not b.b_ordered then begin
    b.b_rows <- List.rev b.b_rows;
    b.b_ordered <- true
  end;
  b.b_rows

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

let run_hash_join ?budget ~jobs ~keep left right ~left_keys ~right_keys =
  let ls = Relation.schema left and rs = Relation.schema right in
  let lf = List.map (compile ls) left_keys and rf = List.map (compile rs) right_keys in
  let out_schema, emit = join_output keep ls rs in
  let lrows = Relation.rows left and rrows = Relation.rows right in
  let nl = Array.length lrows and nr = Array.length rrows in
  let probe_key fns row =
    let key = Array.of_list (List.map (fun f -> f row) fns) in
    if Array.exists Value.is_null key then None else Some key
  in
  (* With a budget in force the join stays serial: rows are charged as
     they are emitted, and a parallel emit would make the Truncate
     prefix depend on scheduling. *)
  if Option.is_some budget || not (use_parallel ~jobs (nl + nr)) then begin
    let table = Ktbl.create (max 16 nr) in
    Array.iter
      (fun row ->
        match probe_key rf row with
        | Some key -> bucket_add table key row
        | None -> ())
      rrows;
    let out = ref [] in
    (try
       Array.iter
         (fun lrow ->
           match probe_key lf lrow with
           | None -> ()
           | Some key -> (
             match Ktbl.find_opt table key with
             | None -> ()
             | Some b ->
               List.iter
                 (fun rrow ->
                   tick budget;
                   out := emit lrow rrow :: !out)
                 (bucket_rows b)))
         lrows
     with Budget_stop -> ());
    emit_result budget out_schema out
  end
  else begin
    (* radix-partitioned build: extract build keys in parallel, build
       one sub-table per key partition in parallel (each partition
       scans the key array, touching only its own rows), then probe
       left chunks in parallel against the read-only tables.  Chunk
       outputs concatenate in order, so the result is bit-identical to
       the serial join. *)
    let nparts = min jobs Parallel.max_jobs in
    let rkeys = Array.make nr None in
    let rpids = Array.make nr 0 in
    let branges = chunk_ranges ~jobs nr in
    Parallel.run ~jobs (Array.length branges) (fun ci ->
        let lo, len = branges.(ci) in
        for i = lo to lo + len - 1 do
          match probe_key rf rrows.(i) with
          | Some key ->
            rkeys.(i) <- Some key;
            rpids.(i) <- key_pid ~nparts key
          | None -> ()
        done);
    let tables =
      Parallel.init ~jobs nparts (fun p ->
          let table = Ktbl.create (max 16 (nr / nparts)) in
          for i = 0 to nr - 1 do
            match rkeys.(i) with
            | Some key when rpids.(i) = p -> bucket_add table key rrows.(i)
            | _ -> ()
          done;
          Ktbl.iter
            (fun _ b ->
              b.b_rows <- List.rev b.b_rows;
              b.b_ordered <- true)
            table;
          table)
    in
    let pranges = chunk_ranges ~jobs nl in
    let parts =
      Parallel.init ~jobs (Array.length pranges) (fun ci ->
          let lo, len = pranges.(ci) in
          let acc = ref [] in
          for i = lo to lo + len - 1 do
            let lrow = lrows.(i) in
            match probe_key lf lrow with
            | None -> ()
            | Some key -> (
              match Ktbl.find_opt tables.(key_pid ~nparts key) key with
              | None -> ()
              | Some b ->
                List.iter
                  (fun rrow -> acc := emit lrow rrow :: !acc)
                  b.b_rows)
          done;
          List.rev !acc)
    in
    Relation.create out_schema (List.concat (Array.to_list parts))
  end

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
    let table = Ktbl.create (max 16 (Relation.cardinality rrel)) in
    let add_bucket key row =
      let existing = Option.value ~default:[] (Ktbl.find_opt table key) in
      Ktbl.replace table key (row :: existing)
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
                 (Option.value ~default:[] (Ktbl.find_opt table key)))
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
   benchmark alike.  Budgets and telemetry only observe or bound node
   boundaries: every configuration runs the same operators. *)

type ctx = { budget : Budget.t option; jobs : int; catalog : catalog }

let rec run_node ctx (plan : Plan.t) : Relation.t =
  (* bail out of deep plans promptly when the clock has run out *)
  (match ctx.budget with None -> () | Some b -> Budget.check_time b);
  let rel =
    if not (Telemetry.Control.enabled ()) then eval ctx (resolve_node ctx plan)
    else
      Telemetry.Span.with_ ~name:("exec." ^ operator_label plan) (fun () ->
          let t0 = Unix.gettimeofday () in
          let rel = eval ctx (resolve_node ctx plan) in
          Telemetry.Metrics.observe h_operator_seconds (Unix.gettimeofday () -. t0);
          let n = Relation.cardinality rel in
          Telemetry.Metrics.inc m_operators;
          Telemetry.Metrics.inc ~n m_rows_out;
          Telemetry.Span.add_attr "rows_out" (string_of_int n);
          Telemetry.Span.add_attr "cols_out"
            (string_of_int (Schema.arity (Relation.schema rel)));
          rel)
  in
  match ctx.budget with
  | None -> rel
  | Some _ when per_row_charged plan -> rel
  | Some b ->
    let n = Relation.cardinality rel in
    let allowed = Budget.admit b n in
    if allowed >= n then rel
    else Relation.of_array (Relation.schema rel) (Array.sub (Relation.rows rel) 0 allowed)

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
    let schema = Schema.rename ~prefix:alias (Relation.schema rel) in
    Relation.of_array schema (Relation.rows rel)
  | Filter { input; pred } ->
    let rel = run_child ctx input in
    run_filter ?cancel ~jobs (predicate (Relation.schema rel) pred) rel
  | Project { input; items } ->
    let rel = run_child ctx input in
    let schema = Relation.schema rel in
    let fns = List.map (fun (e, _) -> compile schema e) items in
    let rows =
      run_map_rows ?cancel ~jobs
        (fun row -> Array.of_list (List.map (fun f -> f row) fns))
        rel
    in
    Relation.create (infer_schema (List.map snd items) rows) rows
  | Hash_join { left; right; left_keys; right_keys; keep } ->
    run_hash_join ?budget ~jobs ~keep (run_child ctx left)
      (run_child ctx right) ~left_keys ~right_keys
  | Left_outer_join { left; right; on } ->
    run_left_outer_join ?budget (run_child ctx left) (run_child ctx right) ~on
  | Index_join { left; table; alias; left_keys; right_attrs; keep } -> (
    let base =
      try ctx.catalog.relation table
      with Not_found -> exec_errorf "unknown table %s" table
    in
    match right_attrs with
    | [] -> exec_errorf "index join with no key attributes"
    | first_attr :: other_attrs -> (
      match ctx.catalog.index table first_attr with
      | None -> exec_errorf "no index on %s.%s" table first_attr
      | Some index ->
        let lrel = run_child ctx left in
        let ls = Relation.schema lrel in
        let first_f, rest_f =
          match List.map (compile ls) left_keys with
          | [] -> exec_errorf "index join with no probe keys"
          | f :: fs -> (f, Array.of_list fs)
        in
        let other_idx =
          Array.of_list
            (List.map (Schema.index_of (Relation.schema base)) other_attrs)
        in
        let nrest = Array.length other_idx in
        let out_schema, emit =
          join_output keep ls
            (Schema.rename ~prefix:alias (Relation.schema base))
        in
        let out = ref [] in
        (try
           Relation.iter
             (fun lrow ->
               let probe = first_f lrow in
               if not (Value.is_null probe) then
                 match Index.lookup index probe with
                 | [] -> ()
                 | matches ->
                   (* residual equalities on the remaining key attrs:
                      their probe values once per left row, and no
                      allocation per match *)
                   let rest_vals = Array.map (fun f -> f lrow) rest_f in
                   let rec residual_ok rrow j =
                     j >= nrest
                     || Value.equal rest_vals.(j) rrow.(other_idx.(j))
                        && residual_ok rrow (j + 1)
                   in
                   List.iter
                     (fun i ->
                       let rrow = Relation.get base i in
                       if residual_ok rrow 0 then begin
                         tick budget;
                         out := emit lrow rrow :: !out
                       end)
                     matches)
             lrel
         with Budget_stop -> ());
        emit_result budget out_schema out))
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
    run_aggregate ?cancel ~jobs (run_child ctx input) ~group_by ~items ~having
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
