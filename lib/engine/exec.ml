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

type agg_state =
  | Count_state of int ref
  | Sum_state of { mutable int_sum : int; mutable float_sum : float;
                   mutable is_float : bool; mutable seen : bool }
  | Avg_state of { mutable total : float; mutable count : int }
  | Min_state of Value.t option ref
  | Max_state of Value.t option ref

let new_state (f : Sql.Ast.agg_fun) =
  match f with
  | Count -> Count_state (ref 0)
  | Sum -> Sum_state { int_sum = 0; float_sum = 0.0; is_float = false; seen = false }
  | Avg -> Avg_state { total = 0.0; count = 0 }
  | Min -> Min_state (ref None)
  | Max -> Max_state (ref None)

let feed state (v : Value.t option) =
  (* [v] is [None] for count-star, [Some value] otherwise *)
  match state, v with
  | Count_state r, None -> incr r
  | Count_state r, Some v -> if not (Value.is_null v) then incr r
  | Sum_state s, Some v -> (
    if not (Value.is_null v) then
      match v with
      | Value.Int i ->
        s.seen <- true;
        if s.is_float then s.float_sum <- s.float_sum +. float_of_int i
        else s.int_sum <- s.int_sum + i
      | _ -> (
        match Value.to_float v with
        | Some f ->
          s.seen <- true;
          if not s.is_float then begin
            s.is_float <- true;
            s.float_sum <- float_of_int s.int_sum
          end;
          s.float_sum <- s.float_sum +. f
        | None -> exec_errorf "SUM of non-numeric value %s" (Value.to_string v)))
  | Avg_state s, Some v -> (
    if not (Value.is_null v) then
      match Value.to_float v with
      | Some f ->
        s.total <- s.total +. f;
        s.count <- s.count + 1
      | None -> exec_errorf "AVG of non-numeric value %s" (Value.to_string v))
  | Min_state r, Some v ->
    if not (Value.is_null v) then begin
      match !r with
      | None -> r := Some v
      | Some m -> if Value.compare v m < 0 then r := Some v
    end
  | Max_state r, Some v ->
    if not (Value.is_null v) then begin
      match !r with
      | None -> r := Some v
      | Some m -> if Value.compare v m > 0 then r := Some v
    end
  | (Sum_state _ | Avg_state _ | Min_state _ | Max_state _), None ->
    exec_errorf "aggregate other than COUNT requires an argument"

let finish = function
  | Count_state r -> Value.Int !r
  | Sum_state s ->
    if not s.seen then Value.Null
    else if s.is_float then Value.Float s.float_sum
    else Value.Int s.int_sum
  | Avg_state s ->
    if s.count = 0 then Value.Null else Value.Float (s.total /. float_of_int s.count)
  | Min_state r | Max_state r -> Option.value ~default:Value.Null !r

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

(* parallel filter over row ranges; preserves row order exactly *)
let run_filter ?cancel ~jobs pred rel =
  let rows = Relation.rows rel in
  let n = Array.length rows in
  if not (use_parallel ~jobs n) then Relation.filter pred rel
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
  if not (use_parallel ~jobs n) then List.map f (Array.to_list rows)
  else begin
    let ranges = chunk_ranges ~jobs n in
    let parts =
      Parallel.init ?cancel ~jobs (Array.length ranges) (fun ci ->
          let lo, len = ranges.(ci) in
          List.init len (fun i -> f rows.(lo + i)))
    in
    List.concat (Array.to_list parts)
  end

(* an aggregate argument: count-star or a compiled expression *)
type agg_arg = Star_arg | Expr_arg of (Relation.row -> Value.t)

let feed_arg state arg row =
  match arg with
  | Star_arg -> feed state None
  | Expr_arg f -> feed state (Some (f row))

let run_aggregate ?cancel ~jobs input ~group_by ~items ~having =
  let in_schema = Relation.schema input in
  let key_fns = Array.of_list (List.map (compile in_schema) group_by) in
  let num_keys = Array.length key_fns in
  let exprs = List.map fst items @ Option.to_list having in
  let aggs = collect_aggs exprs in
  let agg_specs =
    Array.of_list
      (List.map
         (fun e ->
           match (e : Sql.Ast.expr) with
           | Agg (f, None) -> (f, Star_arg)
           | Agg (f, Some arg) -> (f, Expr_arg (compile in_schema arg))
           | _ -> assert false)
         aggs)
  in
  let num_aggs = Array.length agg_specs in
  let new_states () = Array.map (fun (f, _) -> new_state f) agg_specs in
  let rows = Relation.rows input in
  let n = Array.length rows in
  let feed_row states row =
    for i = 0 to num_aggs - 1 do
      feed_arg states.(i) (snd agg_specs.(i)) row
    done
  in
  (* Parallel grouping partitions GROUPS (by key hash), not rows: a
     partition owns every row of its groups and feeds them in original
     row order, so per-group accumulation (including float order) is
     exactly the serial one.  Merging sorts partitions' groups by
     first-occurrence row index, recovering serial group order — the
     whole operator is bit-identical to serial.  Ungrouped aggregates
     have a single group and stay serial. *)
  let finished_rows =
    if num_keys > 0 && use_parallel ~jobs n then begin
      let keys = Array.make n [||] in
      let nparts = min jobs Parallel.max_jobs in
      let pids = Array.make n 0 in
      let ranges = chunk_ranges ~jobs n in
      Parallel.run ?cancel ~jobs (Array.length ranges) (fun ci ->
          let lo, len = ranges.(ci) in
          for i = lo to lo + len - 1 do
            let key = Array.init num_keys (fun j -> key_fns.(j) rows.(i)) in
            keys.(i) <- key;
            pids.(i) <- key_pid ~nparts key
          done);
      let per_part =
        Parallel.init ?cancel ~jobs nparts (fun p ->
            let groups = Ktbl.create 64 in
            (* (first-occurrence row index, key, states), reversed *)
            let entries = ref [] in
            for i = 0 to n - 1 do
              if pids.(i) = p then begin
                let states =
                  match Ktbl.find_opt groups keys.(i) with
                  | Some states -> states
                  | None ->
                    let states = new_states () in
                    Ktbl.add groups keys.(i) states;
                    entries := (i, keys.(i), states) :: !entries;
                    states
                in
                feed_row states rows.(i)
              end
            done;
            List.rev !entries)
      in
      let merged =
        List.sort
          (fun (a, _, _) (b, _, _) -> Int.compare a b)
          (List.concat (Array.to_list per_part))
      in
      List.map
        (fun (_, key, states) -> Array.append key (Array.map finish states))
        merged
    end
    else begin
      let groups = Ktbl.create 256 in
      let order = ref [] in
      Array.iter
        (fun row ->
          let key = Array.init num_keys (fun i -> key_fns.(i) row) in
          let states =
            match Ktbl.find_opt groups key with
            | Some states -> states
            | None ->
              let states = new_states () in
              Ktbl.add groups key states;
              order := key :: !order;
              states
          in
          feed_row states row)
        rows;
      (* SQL semantics: an ungrouped aggregate over an empty input
         yields a single row of initial aggregate values *)
      if group_by = [] && Ktbl.length groups = 0 then begin
        Ktbl.add groups [||] (new_states ());
        order := [ [||] ]
      end;
      List.rev_map
        (fun key ->
          let states = Ktbl.find groups key in
          Array.append key (Array.map finish states))
        !order
    end
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

let run_hash_join ?budget ~jobs left right ~left_keys ~right_keys =
  let ls = Relation.schema left and rs = Relation.schema right in
  let lf = List.map (compile ls) left_keys and rf = List.map (compile rs) right_keys in
  let out_schema = Schema.append ls rs in
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
                   out := Array.append lrow rrow :: !out)
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
                  (fun rrow -> acc := Array.append lrow rrow :: !acc)
                  b.b_rows)
          done;
          List.rev !acc)
    in
    Relation.create out_schema (List.concat (Array.to_list parts))
  end

(* ---- spill-to-disk (Grace) hash join ----

   When a spill configuration is in force and the build side reaches
   the row threshold, both inputs are hash-partitioned by join key
   into on-disk run files and the join proceeds partition-at-a-time,
   bounding the in-memory hash table to roughly [spill_rows] build
   rows.  All file traffic goes through {!Fault.Io}, so chaos tests
   can fail or crash any syscall of a spill; a crashed spill leaves
   [.spill-*.tmp] debris for [Dirty.Store.recover] to sweep.

   Row codec: each row is one [Marshal] frame appended to its
   partition file; frames are buffered and flushed in large batches to
   keep the syscall count low.  Output is partition-major (partition
   ids ascending, probe rows in input order within each) — a
   bag-identical but differently ordered result from the in-memory
   join, which is the spill path's one documented divergence. *)

type spill = { spill_rows : int; spill_dir : string }

let m_spills =
  Telemetry.Metrics.counter "engine.exec.join_spills"
    ~help:"hash joins that spilled to disk"

let m_spill_bytes =
  Telemetry.Metrics.counter "engine.exec.join_spill_bytes"
    ~help:"bytes written to join spill partition files"

let spill_seq = Atomic.make 0
let spill_flush_bytes = 1 lsl 18

(* a lazily created partition run file: empty partitions never touch
   the disk, and small ones cost one write *)
type spill_file = {
  sf_path : string;
  mutable sf_writer : Fault.Io.writer option;
  sf_buf : Buffer.t;
}

let spill_file path =
  { sf_path = path; sf_writer = None; sf_buf = Buffer.create 4096 }

let spill_flush sf =
  if Buffer.length sf.sf_buf > 0 then begin
    let s = Buffer.contents sf.sf_buf in
    Buffer.clear sf.sf_buf;
    let w =
      match sf.sf_writer with
      | Some w -> w
      | None ->
        let w = Fault.Io.open_out sf.sf_path in
        sf.sf_writer <- Some w;
        w
    in
    Fault.Io.write w s;
    Telemetry.Metrics.inc ~n:(String.length s) m_spill_bytes
  end

let spill_add sf (row : Relation.row) =
  Buffer.add_string sf.sf_buf (Marshal.to_string row []);
  if Buffer.length sf.sf_buf >= spill_flush_bytes then spill_flush sf

let spill_close sf =
  spill_flush sf;
  match sf.sf_writer with None -> () | Some w -> Fault.Io.close w

let spill_read_rows path =
  (* a partition whose file was never created holds no rows *)
  if not (Sys.file_exists path) then []
  else begin
    let s = Fault.Io.read_file path in
    let bytes = Bytes.unsafe_of_string s in
    let len = String.length s in
    let torn () =
      raise
        (Fault.Io.Io_error
           { op = Read; path; msg = "torn spill frame"; transient = false })
    in
    let rec go ofs acc =
      if ofs >= len then List.rev acc
      else if len - ofs < Marshal.header_size then torn ()
      else begin
        let sz = Marshal.total_size bytes ofs in
        if ofs + sz > len then torn ()
        else begin
          let (row : Relation.row) = Marshal.from_string s ofs in
          go (ofs + sz) (row :: acc)
        end
      end
    in
    go 0 []
  end

let run_spill_hash_join ?budget ~spill left right ~left_keys ~right_keys =
  let ls = Relation.schema left and rs = Relation.schema right in
  let lf = List.map (compile ls) left_keys
  and rf = List.map (compile rs) right_keys in
  let out_schema = Schema.append ls rs in
  let probe_key fns row =
    let key = Array.of_list (List.map (fun f -> f row) fns) in
    if Array.exists Value.is_null key then None else Some key
  in
  let nr = Relation.cardinality right in
  let nparts =
    min 64 (max 2 ((nr + spill.spill_rows - 1) / max 1 spill.spill_rows))
  in
  Telemetry.Metrics.inc m_spills;
  let seq = Atomic.fetch_and_add spill_seq 1 in
  let path tag p =
    Filename.concat spill.spill_dir
      (Printf.sprintf ".spill-%d-%d-%s%d.tmp" (Unix.getpid ()) seq tag p)
  in
  let bfiles = Array.init nparts (fun p -> spill_file (path "b" p)) in
  let pfiles = Array.init nparts (fun p -> spill_file (path "p" p)) in
  let all_files = Array.to_list bfiles @ Array.to_list pfiles in
  let cleanup () =
    List.iter
      (fun sf ->
        (match sf.sf_writer with None -> () | Some w -> Fault.Io.abort w);
        if Sys.file_exists sf.sf_path then
          (* best effort: after a simulated crash [remove] is
             suppressed (a dead process cannot repair the disk) and
             the debris is [recover]'s to sweep *)
          try Fault.Io.remove sf.sf_path with _ -> ())
      all_files
  in
  Fun.protect ~finally:cleanup (fun () ->
      Telemetry.Span.with_ ~name:"exec.spill_join" (fun () ->
          (* partition both sides to disk in input order *)
          Relation.iter
            (fun row ->
              match probe_key rf row with
              | Some key -> spill_add bfiles.(key_pid ~nparts key) row
              | None -> ())
            right;
          Array.iter spill_close bfiles;
          Relation.iter
            (fun row ->
              match probe_key lf row with
              | Some key -> spill_add pfiles.(key_pid ~nparts key) row
              | None -> ())
            left;
          Array.iter spill_close pfiles;
          (* join one partition at a time; output is partition-major *)
          let out = ref [] in
          (try
             for p = 0 to nparts - 1 do
               match spill_read_rows bfiles.(p).sf_path with
               | [] -> ()
               | brows ->
                 let table = Ktbl.create (max 16 (List.length brows)) in
                 List.iter
                   (fun row ->
                     match probe_key rf row with
                     | Some key -> bucket_add table key row
                     | None -> ())
                   brows;
                 List.iter
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
                             out := Array.append lrow rrow :: !out)
                           (bucket_rows b)))
                   (spill_read_rows pfiles.(p).sf_path)
             done
           with Budget_stop -> ());
          emit_result budget out_schema out))

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

   The interpreter threads a [hook] around every node's evaluation so
   that {!run_profiled} can record per-operator statistics without a
   second copy of the evaluation logic.  Budgets, spill, telemetry
   and profiling only observe or bound node boundaries: every
   configuration runs the same operators. *)

type ctx = {
  budget : Budget.t option;
  jobs : int;
  hook : Plan.t -> (unit -> Relation.t) -> Relation.t;
  catalog : catalog;
  spill : spill option;
}

let rec run_hooked ctx (plan : Plan.t) : Relation.t =
  (* bail out of deep plans promptly when the clock has run out *)
  (match ctx.budget with None -> () | Some b -> Budget.check_time b);
  let eval_node () = ctx.hook plan (fun () -> eval ctx (resolve_node ctx plan)) in
  let rel =
    if not (Telemetry.Control.enabled ()) then eval_node ()
    else
      Telemetry.Span.with_ ~name:("exec." ^ operator_label plan) (fun () ->
          let t0 = Unix.gettimeofday () in
          let rel = eval_node () in
          Telemetry.Metrics.observe h_operator_seconds (Unix.gettimeofday () -. t0);
          let n = Relation.cardinality rel in
          Telemetry.Metrics.inc m_operators;
          Telemetry.Metrics.inc ~n m_rows_out;
          Telemetry.Span.add_attr "rows_out" (string_of_int n);
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
  let rel = run_hooked ctx plan in
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
  run_hooked { ctx with hook = (fun _ f -> f ()) } plan

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
  | Hash_join { left; right; left_keys; right_keys } ->
    Hash_join
      {
        left;
        right;
        left_keys = List.map r left_keys;
        right_keys = List.map r right_keys;
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
  | Hash_join { left; right; left_keys; right_keys } -> (
    match ctx.spill with
    | Some sp ->
      (* spill-eligible executions materialize both sides first (the
         threshold needs the build cardinality); below the threshold
         the ordinary join runs over them *)
      let lrel = run_child ctx left and rrel = run_child ctx right in
      if Relation.cardinality rrel >= sp.spill_rows then
        run_spill_hash_join ?budget ~spill:sp lrel rrel ~left_keys ~right_keys
      else run_hash_join ?budget ~jobs lrel rrel ~left_keys ~right_keys
    | None ->
      run_hash_join ?budget ~jobs (run_child ctx left) (run_child ctx right)
        ~left_keys ~right_keys)
  | Left_outer_join { left; right; on } ->
    run_left_outer_join ?budget (run_child ctx left) (run_child ctx right) ~on
  | Index_join { left; table; alias; left_keys; right_attrs } -> (
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
        let lf =
          match List.map (compile ls) left_keys with
          | [] -> exec_errorf "index join with no probe keys"
          | f :: fs -> (f, fs)
        in
        let other_idx =
          List.map (Schema.index_of (Relation.schema base)) other_attrs
        in
        let out_schema =
          Schema.append ls (Schema.rename ~prefix:alias (Relation.schema base))
        in
        let out = ref [] in
        (try
           Relation.iter
             (fun lrow ->
               let first_f, rest_f = lf in
               let probe = first_f lrow in
               if not (Value.is_null probe) then
                 List.iter
                   (fun i ->
                     let rrow = Relation.get base i in
                     (* residual equalities on the remaining key attrs *)
                     let rest_vals = List.map (fun f -> f lrow) rest_f in
                     let ok =
                       List.for_all2
                         (fun v j -> Value.equal v rrow.(j))
                         rest_vals other_idx
                     in
                     if ok then begin
                       tick budget;
                       out := Array.append lrow rrow :: !out
                     end)
                   (Index.lookup index probe))
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

let run ?budget ?(jobs = 1) ?spill catalog plan =
  let ctx = { budget; jobs; hook = (fun _ f -> f ()); catalog; spill } in
  (* evaluation-time type errors surface as engine errors *)
  try run_to_stop budget (fun () -> run_hooked ctx plan)
  with Expr.Type_error msg -> raise (Exec_error msg)

type profile = {
  operator : string;
  out_rows : int;
  elapsed : float;
  children : profile list;
}

let run_profiled ?budget ?(jobs = 1) ?spill catalog plan =
  (* a stack of children accumulators: the hook pushes a frame before
     evaluating a node and folds the completed profile into the
     parent's frame afterwards *)
  let stack = ref [ [] ] in
  let hook node f =
    stack := [] :: !stack;
    let t0 = Unix.gettimeofday () in
    let rel = f () in
    let elapsed = Unix.gettimeofday () -. t0 in
    (match !stack with
    | children :: parent :: rest ->
      let p =
        {
          operator = operator_label node;
          out_rows = Relation.cardinality rel;
          elapsed;
          children = List.rev children;
        }
      in
      stack := (p :: parent) :: rest
    | _ -> assert false);
    rel
  in
  let ctx = { budget; jobs; hook; catalog; spill } in
  let rel =
    try
      run_to_stop budget (fun () ->
          stack := [ [] ];
          run_hooked ctx plan)
    with Expr.Type_error msg -> raise (Exec_error msg)
  in
  match !stack with
  | [ [ root ] ] -> (rel, root)
  | _ -> raise (Exec_error "run_profiled: unbalanced profile stack")

let rec pp_profile_indent fmt indent p =
  Format.fprintf fmt "%s%s  rows=%d  time=%.3fms@\n"
    (String.make indent ' ')
    p.operator p.out_rows (p.elapsed *. 1000.0);
  List.iter (pp_profile_indent fmt (indent + 2)) p.children

let pp_profile fmt p = pp_profile_indent fmt 0 p
