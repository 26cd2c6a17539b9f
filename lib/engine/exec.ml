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

let m_chunks_out =
  Telemetry.Metrics.counter "engine.exec.chunks_out"
    ~help:"column chunks produced by chunked operators"

let h_rows_per_chunk =
  Telemetry.Metrics.histogram "engine.exec.rows_per_chunk"
    ~help:"rows per chunk emitted by chunked operators"

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

(* Shared tail of the aggregation operators (row and chunked):
   [finished_rows] are [key columns @ aggregate columns] rows in
   first-occurrence group order; apply HAVING and the final projection
   over the #g/#a intermediate schema. *)
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

(* chunked parallel filter; preserves row order exactly *)
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

(* chunked parallel row mapping (Project); order-preserving *)
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


(* ---- columnar chunk executor ----

   The chunked path evaluates Filter/Project/Hash_join/Aggregate a
   chunk at a time over {!Chunk.t} batches.  A morsel is one chunk;
   the unit handed to {!Parallel} is the chunk index, so workers steal
   fixed-size chunks instead of pre-split halves, and the output
   (chunks concatenated in index order) is bit-identical between
   jobs=1 and jobs=N: chunk boundaries depend on the data and
   [!Chunk.default_rows] only, never on the jobs count. *)

type ctable = { c_schema : Schema.t; c_chunks : Chunk.t array }

let note_chunks (chunks : Chunk.t array) =
  if Telemetry.Control.enabled () then begin
    Telemetry.Metrics.inc ~n:(Array.length chunks) m_chunks_out;
    Array.iter
      (fun (c : Chunk.t) ->
        Telemetry.Metrics.observe h_rows_per_chunk (float_of_int c.Chunk.length))
      chunks
  end

(* row-major to column-major pivot, one chunk per morsel *)
let pivot_relation ?cancel ~jobs rel =
  let n = Relation.cardinality rel in
  let arity = Schema.arity (Relation.schema rel) in
  let cap = max 1 !Chunk.default_rows in
  let nchunks = (n + cap - 1) / cap in
  Parallel.init ?cancel ~jobs nchunks (fun ci ->
      let lo = ci * cap in
      let len = min cap (n - lo) in
      {
        Chunk.length = len;
        cols =
          Array.init arity (fun j ->
              Chunk.col_of_values (Relation.column_slice rel ~col:j ~lo ~len));
      })

(* Pivot memoization.  Base tables are scanned by every query, and the
   pivot (classification + dictionary build) is the chunked path's
   dominant constant cost over them, so completed pivots are kept in a
   small cache keyed by the PHYSICAL identity of the relation's row
   array.  The rows array — not the relation — is the key because the
   executor re-wraps tables in alias-qualified schemas per query
   ([Relation.of_array schema (Relation.rows rel)] shares the array),
   and the pivot reads cell values only, never schema names.  Safe
   because the relational API is persistent: mutators like
   [Relation.map_rows] build new row arrays.  The array is held
   through a [Weak] pointer: dropping a table frees its pivot at the
   next insertion sweep.  Entries remember the chunk cap they were
   built with, so tests that shrink [!Chunk.default_rows] never see a
   stale slicing. *)
type pivot_entry = {
  p_rows : Value.t array array Weak.t;
  p_cap : int;
  p_chunks : Chunk.t array;
}

let pivot_cache : pivot_entry list ref = ref []
let pivot_lock = Mutex.create ()
let pivot_cache_limit = 32

let ctable_of_relation ?cancel ~jobs rel =
  let cap = max 1 !Chunk.default_rows in
  let rows = Relation.rows rel in
  let cached =
    Mutex.lock pivot_lock;
    let hit =
      List.find_opt
        (fun e ->
          e.p_cap = cap
          && match Weak.get e.p_rows 0 with Some r -> r == rows | None -> false)
        !pivot_cache
    in
    Mutex.unlock pivot_lock;
    hit
  in
  let chunks =
    match cached with
    | Some e -> e.p_chunks
    | None ->
      let chunks = pivot_relation ?cancel ~jobs rel in
      let w = Weak.create 1 in
      Weak.set w 0 (Some rows);
      Mutex.lock pivot_lock;
      let live =
        List.filter
          (fun e -> match Weak.get e.p_rows 0 with Some _ -> true | None -> false)
          !pivot_cache
      in
      let trimmed = List.filteri (fun i _ -> i < pivot_cache_limit - 1) live in
      pivot_cache := { p_rows = w; p_cap = cap; p_chunks = chunks } :: trimmed;
      Mutex.unlock pivot_lock;
      chunks
  in
  { c_schema = Relation.schema rel; c_chunks = chunks }

let relation_of_ctable ?cancel ~jobs ct =
  let chunks = ct.c_chunks in
  let n = Array.fold_left (fun acc (c : Chunk.t) -> acc + c.Chunk.length) 0 chunks in
  let offsets = Array.make (Array.length chunks) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun i (c : Chunk.t) ->
      offsets.(i) <- !pos;
      pos := !pos + c.Chunk.length)
    chunks;
  let out = Array.make n [||] in
  Parallel.run ?cancel ~jobs (Array.length chunks) (fun ci ->
      Chunk.blit_rows chunks.(ci) out ~pos:offsets.(ci));
  Relation.of_array ct.c_schema out

(* output schema inference, matching [infer_schema] over the
   materialized rows: first non-null cell in row order, TString when
   the column is entirely null *)
let infer_ctable_schema names (chunks : Chunk.t array) =
  Schema.make
    (List.map
       (fun (j, name) ->
         let rec go ci =
           if ci >= Array.length chunks then Value.TString
           else
             match Chunk.column_ty chunks.(ci) j with
             | Some ty -> ty
             | None -> go (ci + 1)
         in
         (name, go 0))
       (List.mapi (fun j name -> (j, name)) names))

(* ---- vectorized expression evaluation ----

   [vcompile] turns an expression into a chunk-to-column function when
   every subexpression has a kernel; otherwise the operator falls back
   to the compiled row closure over the chunk's materialized rows.
   The kernels agree with the row path lane for lane.  When several
   lanes (or several subexpressions) would each raise, both paths
   raise — the columnar evaluation order may surface a different
   instance of the error, which is the one accepted divergence. *)

type vval = Vcol of Chunk.col | Vlit of Value.t

let vcell v i = match v with Vcol c -> Chunk.cell c i | Vlit x -> x
let vnull v i = match v with Vcol c -> Chunk.is_null c i | Vlit x -> Value.is_null x

let col_of_vval n v =
  match v with Vcol c -> c | Vlit x -> Chunk.const n x

(* or-combined null bitmap of two operands of a NULL-propagating
   operation; literal operands reaching the typed fast paths are never
   null (a null literal routes through the generic path) *)
let merged_nulls n a b =
  let bm v = match v with Vcol c -> c.Chunk.nulls | Vlit _ -> None in
  match bm a, bm b with
  | None, None -> None
  | Some x, None -> Some x
  | None, Some y -> Some y
  | Some x, Some y ->
    let nb = Chunk.Bitmap.create n in
    for i = 0 to n - 1 do
      if Chunk.Bitmap.get x i || Chunk.Bitmap.get y i then Chunk.Bitmap.set nb i
    done;
    Some nb

(* SQL predicate truth of every lane ([Expr.truth]: Null is false,
   non-boolean raises); loops run in ascending order so the first
   raising lane matches the row path's first bad row *)
let truth_mask v n : bool array =
  match v with
  | Vlit x -> Array.make n (Expr.truth x)
  | Vcol ({ Chunk.data = Chunk.Bools a; _ } as c) -> (
    match c.Chunk.nulls with
    | None -> Array.init n (fun i -> a.(i))
    | Some m -> Array.init n (fun i -> (not (Chunk.Bitmap.get m i)) && a.(i)))
  | Vcol c ->
    let out = Array.make n false in
    for i = 0 to n - 1 do
      out.(i) <- Expr.truth (Chunk.cell c i)
    done;
    out

(* numeric views: unboxed accessors over int/float columns and
   numeric literals; everything else goes through the generic path *)
type numview =
  | NInts of int array
  | NFloats of float array
  | NIntLit of int
  | NFloatLit of float
  | NOther

let numview v =
  match v with
  | Vlit (Value.Int i) -> NIntLit i
  | Vlit (Value.Float f) -> NFloatLit f
  | Vlit _ -> NOther
  | Vcol { Chunk.data = Chunk.Ints a; _ } -> NInts a
  | Vcol { Chunk.data = Chunk.Floats a; _ } -> NFloats a
  | Vcol _ -> NOther

let iget = function
  | NInts a -> fun i -> a.(i)
  | NIntLit k -> fun _ -> k
  | NFloats _ | NFloatLit _ | NOther -> assert false

let fget = function
  | NInts a -> fun i -> float_of_int a.(i)
  | NFloats a -> fun i -> a.(i)
  | NIntLit k ->
    let f = float_of_int k in
    fun _ -> f
  | NFloatLit k -> fun _ -> k
  | NOther -> assert false

let null_test = function
  | None -> fun _ -> false
  | Some m -> Chunk.Bitmap.get m

(* vectorized NULL-propagating arithmetic.  Division consults the null
   mask before the zero test: the row path yields NULL for [x / NULL]
   and [NULL / 0] without raising, and the dummy slot under a null is
   0, so testing the slot first would raise spuriously. *)
let arith_kernel (op : Sql.Ast.binop) a b n : Chunk.col =
  let va = numview a and vb = numview b in
  match va, vb with
  | NOther, _ | _, NOther ->
    let f =
      match op with
      | Sql.Ast.Add -> Expr.add
      | Sql.Ast.Sub -> Expr.sub
      | Sql.Ast.Mul -> Expr.mul
      | Sql.Ast.Div -> Expr.div
      | _ -> assert false
    in
    let out = Array.make n Value.Null in
    for i = 0 to n - 1 do
      out.(i) <- f (vcell a i) (vcell b i)
    done;
    Chunk.col_of_values out
  | (NInts _ | NIntLit _), (NInts _ | NIntLit _) ->
    let nulls = merged_nulls n a b in
    let ia = iget va and ib = iget vb in
    let out = Array.make n 0 in
    (match op with
    | Sql.Ast.Add -> for i = 0 to n - 1 do out.(i) <- ia i + ib i done
    | Sql.Ast.Sub -> for i = 0 to n - 1 do out.(i) <- ia i - ib i done
    | Sql.Ast.Mul -> for i = 0 to n - 1 do out.(i) <- ia i * ib i done
    | Sql.Ast.Div ->
      let is_null = null_test nulls in
      for i = 0 to n - 1 do
        if not (is_null i) then begin
          let d = ib i in
          if d = 0 then raise (Expr.Type_error "division by zero");
          out.(i) <- ia i / d
        end
      done
    | _ -> assert false);
    { Chunk.data = Chunk.Ints out; nulls }
  | _ ->
    (* at least one float operand: the row path coerces both to float *)
    let nulls = merged_nulls n a b in
    let fa = fget va and fb = fget vb in
    let out = Array.make n 0.0 in
    (match op with
    | Sql.Ast.Add -> for i = 0 to n - 1 do out.(i) <- fa i +. fb i done
    | Sql.Ast.Sub -> for i = 0 to n - 1 do out.(i) <- fa i -. fb i done
    | Sql.Ast.Mul -> for i = 0 to n - 1 do out.(i) <- fa i *. fb i done
    | Sql.Ast.Div ->
      let is_null = null_test nulls in
      for i = 0 to n - 1 do
        if not (is_null i) then begin
          let d = fb i in
          if d = 0.0 then raise (Expr.Type_error "division by zero");
          out.(i) <- fa i /. d
        end
      done
    | _ -> assert false);
    { Chunk.data = Chunk.Floats out; nulls }

let cmp_test (op : Sql.Ast.binop) =
  match op with
  | Sql.Ast.Eq -> fun c -> c = 0
  | Sql.Ast.Neq -> fun c -> c <> 0
  | Sql.Ast.Lt -> fun c -> c < 0
  | Sql.Ast.Le -> fun c -> c <= 0
  | Sql.Ast.Gt -> fun c -> c > 0
  | Sql.Ast.Ge -> fun c -> c >= 0
  | _ -> assert false

(* per-lane sign of [Value.compare (vcell a i) (vcell b i)] without
   re-boxing, for same-rank representation pairs; [None] falls back to
   boxed comparison.  The numeric cross cases go through
   [Value.compare_int_float], the same exact int/float comparison the
   boxed path uses (rounding the int would break transitivity). *)
let sign_fun a b : (int -> int) option =
  match a, b with
  | Vcol { Chunk.data = Chunk.Ints x; _ }, Vcol { Chunk.data = Chunk.Ints y; _ } ->
    Some (fun i -> Int.compare x.(i) y.(i))
  | Vcol { Chunk.data = Chunk.Ints x; _ }, Vlit (Value.Int k) ->
    Some (fun i -> Int.compare x.(i) k)
  | Vlit (Value.Int k), Vcol { Chunk.data = Chunk.Ints y; _ } ->
    Some (fun i -> Int.compare k y.(i))
  | Vcol { Chunk.data = Chunk.Floats x; _ }, Vcol { Chunk.data = Chunk.Floats y; _ }
    ->
    Some (fun i -> Float.compare x.(i) y.(i))
  | Vcol { Chunk.data = Chunk.Floats x; _ }, Vlit (Value.Float k) ->
    Some (fun i -> Float.compare x.(i) k)
  | Vlit (Value.Float k), Vcol { Chunk.data = Chunk.Floats y; _ } ->
    Some (fun i -> Float.compare k y.(i))
  | Vcol { Chunk.data = Chunk.Ints x; _ }, Vcol { Chunk.data = Chunk.Floats y; _ }
    ->
    Some (fun i -> Value.compare_int_float x.(i) y.(i))
  | Vcol { Chunk.data = Chunk.Floats x; _ }, Vcol { Chunk.data = Chunk.Ints y; _ }
    ->
    Some (fun i -> -Value.compare_int_float y.(i) x.(i))
  | Vcol { Chunk.data = Chunk.Ints x; _ }, Vlit (Value.Float k) ->
    Some (fun i -> Value.compare_int_float x.(i) k)
  | Vlit (Value.Float k), Vcol { Chunk.data = Chunk.Ints y; _ } ->
    Some (fun i -> -Value.compare_int_float y.(i) k)
  | Vcol { Chunk.data = Chunk.Floats x; _ }, Vlit (Value.Int k) ->
    Some (fun i -> -Value.compare_int_float k x.(i))
  | Vlit (Value.Int k), Vcol { Chunk.data = Chunk.Floats y; _ } ->
    Some (fun i -> Value.compare_int_float k y.(i))
  | Vcol { Chunk.data = Chunk.Dates x; _ }, Vcol { Chunk.data = Chunk.Dates y; _ }
    ->
    Some (fun i -> Int.compare x.(i) y.(i))
  | Vcol { Chunk.data = Chunk.Dates x; _ }, Vlit (Value.Date k) ->
    Some (fun i -> Int.compare x.(i) k)
  | Vlit (Value.Date k), Vcol { Chunk.data = Chunk.Dates y; _ } ->
    Some (fun i -> Int.compare k y.(i))
  | Vcol { Chunk.data = Chunk.Strings { codes; dict }; _ }, Vlit (Value.String s)
    ->
    (* one comparison per distinct string, then a table lookup *)
    let tbl = Array.map (fun d -> String.compare d s) dict in
    Some (fun i -> tbl.(codes.(i)))
  | Vlit (Value.String s), Vcol { Chunk.data = Chunk.Strings { codes; dict }; _ }
    ->
    let tbl = Array.map (fun d -> String.compare s d) dict in
    Some (fun i -> tbl.(codes.(i)))
  | ( Vcol { Chunk.data = Chunk.Strings sa; _ },
      Vcol { Chunk.data = Chunk.Strings sb; _ } ) ->
    Some (fun i -> String.compare sa.dict.(sa.codes.(i)) sb.dict.(sb.codes.(i)))
  | _ -> None

(* comparison truth per lane: false when either side is NULL *)
let cmp_mask op a b n : bool array =
  let test = cmp_test op in
  let out = Array.make n false in
  (match sign_fun a b with
  | Some sgn ->
    for i = 0 to n - 1 do
      if not (vnull a i || vnull b i) then out.(i) <- test (sgn i)
    done
  | None ->
    for i = 0 to n - 1 do
      let x = vcell a i and y = vcell b i in
      if not (Value.is_null x || Value.is_null y) then
        out.(i) <- test (Value.compare x y)
    done);
  out

let bool_col a = { Chunk.data = Chunk.Bools a; nulls = None }

let not_kernel v n : Chunk.col =
  let out = Array.make n false in
  (match v with
  | Vcol ({ Chunk.data = Chunk.Bools a; _ } as c) ->
    for i = 0 to n - 1 do
      if not (Chunk.is_null c i) then out.(i) <- not a.(i)
    done
  | _ ->
    for i = 0 to n - 1 do
      match vcell v i with
      | Value.Bool b -> out.(i) <- not b
      | Value.Null -> ()
      | x ->
        raise
          (Expr.Type_error
             (Printf.sprintf "NOT: expected boolean, got %s" (Value.to_string x)))
    done);
  bool_col out

let neg_kernel v n : Chunk.col =
  match v with
  | Vcol { Chunk.data = Chunk.Ints a; nulls } ->
    { Chunk.data = Chunk.Ints (Array.init n (fun i -> -a.(i))); nulls }
  | Vcol { Chunk.data = Chunk.Floats a; nulls } ->
    { Chunk.data = Chunk.Floats (Array.init n (fun i -> -.a.(i))); nulls }
  | _ ->
    let out = Array.make n Value.Null in
    for i = 0 to n - 1 do
      out.(i) <-
        (match vcell v i with
        | Value.Int x -> Value.Int (-x)
        | Value.Float x -> Value.Float (-.x)
        | Value.Null -> Value.Null
        | x ->
          raise
            (Expr.Type_error
               (Printf.sprintf "unary -: expected number, got %s"
                  (Value.to_string x))))
    done;
    Chunk.col_of_values out

let is_null_kernel v n ~negate : Chunk.col =
  let out = Array.make n false in
  (match v with
  | Vlit x ->
    let b = Value.is_null x <> negate in
    Array.fill out 0 n b
  | Vcol c ->
    for i = 0 to n - 1 do
      out.(i) <- Chunk.is_null c i <> negate
    done);
  bool_col out

(* LIKE over a dictionary column runs the matcher once per distinct
   string; the generic path mirrors the row semantics, where a
   non-null non-string is matched through [Value.to_string] *)
let like_kernel v n ~pattern ~negate : Chunk.col =
  let matcher = Expr.like_matcher pattern in
  let m s = if negate then not (matcher s) else matcher s in
  let out = Array.make n false in
  (match v with
  | Vcol ({ Chunk.data = Chunk.Strings { codes; dict }; _ } as c) ->
    let tbl = Array.map m dict in
    for i = 0 to n - 1 do
      if not (Chunk.is_null c i) then out.(i) <- tbl.(codes.(i))
    done
  | _ ->
    for i = 0 to n - 1 do
      match vcell v i with
      | Value.Null -> ()
      | Value.String s -> out.(i) <- m s
      | x -> out.(i) <- m (Value.to_string x)
    done);
  bool_col out

let in_list_kernel v n values : Chunk.col =
  let out = Array.make n false in
  (match v with
  | Vcol ({ Chunk.data = Chunk.Strings { codes; dict }; _ } as c) ->
    let tbl =
      Array.map (fun s -> List.exists (Value.equal (Value.String s)) values) dict
    in
    for i = 0 to n - 1 do
      if not (Chunk.is_null c i) then out.(i) <- tbl.(codes.(i))
    done
  | _ ->
    for i = 0 to n - 1 do
      let x = vcell v i in
      if not (Value.is_null x) then out.(i) <- List.exists (Value.equal x) values
    done);
  bool_col out

(* [Some (f, may_raise, bool_total)]: [may_raise] — evaluating the
   kernel can raise [Expr.Type_error] on some input; [bool_total] —
   every lane yields Bool/Null, so [Expr.truth] of any lane cannot
   raise.  Both drive the AND/OR gate: the row path short-circuits the
   right side, so vectorizing it is only sound when evaluating it on
   every lane cannot raise. *)
let rec vcompile schema (e : Sql.Ast.expr) :
    ((Chunk.t -> vval) * bool * bool) option =
  match e with
  | Lit v ->
    let bt = match v with Value.Bool _ | Value.Null -> true | _ -> false in
    Some ((fun _ -> Vlit v), false, bt)
  | Col c -> (
    match Expr.resolve schema c with
    | i -> Some ((fun ch -> Vcol ch.Chunk.cols.(i)), false, false)
    | exception (Expr.Unbound_column _ | Expr.Ambiguous_column _) ->
      (* fall back so the row compiler surfaces the proper error *)
      None)
  | Binop (((Add | Sub | Mul | Div) as op), a, b) -> (
    match vcompile schema a, vcompile schema b with
    | Some (fa, _, _), Some (fb, _, _) ->
      Some
        ( (fun ch -> Vcol (arith_kernel op (fa ch) (fb ch) ch.Chunk.length)),
          true,
          false )
    | _ -> None)
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) -> (
    match vcompile schema a, vcompile schema b with
    | Some (fa, ra, _), Some (fb, rb, _) ->
      Some
        ( (fun ch ->
            Vcol (bool_col (cmp_mask op (fa ch) (fb ch) ch.Chunk.length))),
          ra || rb,
          true )
    | _ -> None)
  | Binop (((And | Or) as op), a, b) -> (
    match vcompile schema a, vcompile schema b with
    | Some (fa, ra, bta), Some (fb, rb, btb) when (not rb) && btb ->
      let conj = match op with Sql.Ast.And -> true | _ -> false in
      let f ch =
        let n = ch.Chunk.length in
        let ma = truth_mask (fa ch) n in
        let mb = truth_mask (fb ch) n in
        let out = Array.make n false in
        if conj then
          for i = 0 to n - 1 do
            out.(i) <- ma.(i) && mb.(i)
          done
        else
          for i = 0 to n - 1 do
            out.(i) <- ma.(i) || mb.(i)
          done;
        Vcol (bool_col out)
      in
      Some (f, ra || not bta, true)
    | _ -> None)
  | Unop (Not, a) -> (
    match vcompile schema a with
    | Some (fa, ra, bta) ->
      Some
        ( (fun ch -> Vcol (not_kernel (fa ch) ch.Chunk.length)),
          ra || not bta,
          true )
    | None -> None)
  | Unop (Neg, a) -> (
    match vcompile schema a with
    | Some (fa, _, _) ->
      Some ((fun ch -> Vcol (neg_kernel (fa ch) ch.Chunk.length)), true, false)
    | None -> None)
  | Is_null a -> (
    match vcompile schema a with
    | Some (fa, ra, _) ->
      Some
        ( (fun ch -> Vcol (is_null_kernel (fa ch) ch.Chunk.length ~negate:false)),
          ra,
          true )
    | None -> None)
  | Is_not_null a -> (
    match vcompile schema a with
    | Some (fa, ra, _) ->
      Some
        ( (fun ch -> Vcol (is_null_kernel (fa ch) ch.Chunk.length ~negate:true)),
          ra,
          true )
    | None -> None)
  | Like (a, p) -> (
    match vcompile schema a with
    | Some (fa, ra, _) ->
      Some
        ( (fun ch ->
            Vcol (like_kernel (fa ch) ch.Chunk.length ~pattern:p ~negate:false)),
          ra,
          true )
    | None -> None)
  | Not_like (a, p) -> (
    match vcompile schema a with
    | Some (fa, ra, _) ->
      Some
        ( (fun ch ->
            Vcol (like_kernel (fa ch) ch.Chunk.length ~pattern:p ~negate:true)),
          ra,
          true )
    | None -> None)
  | In_list (a, vs) -> (
    match vcompile schema a with
    | Some (fa, ra, _) ->
      Some
        ( (fun ch -> Vcol (in_list_kernel (fa ch) ch.Chunk.length vs)),
          ra,
          true )
    | None -> None)
  | Between (a, lo, hi) -> (
    match vcompile schema a, vcompile schema lo, vcompile schema hi with
    | Some (fa, ra, _), Some (fl, rl, _), Some (fh, rh, _) ->
      let f ch =
        let n = ch.Chunk.length in
        let va = fa ch in
        let vl = fl ch in
        let vh = fh ch in
        let m1 = cmp_mask Sql.Ast.Le vl va n in
        let m2 = cmp_mask Sql.Ast.Le va vh n in
        let out = Array.make n false in
        for i = 0 to n - 1 do
          out.(i) <- m1.(i) && m2.(i)
        done;
        Vcol (bool_col out)
      in
      Some (f, ra || rl || rh, true)
    | _ -> None)
  | Agg _ | In_query _ | Exists _ | Scalar_subquery _ -> None

(* a chunk-level compiled expression: vectorized when possible, else
   the row closure applied over the chunk's materialized rows *)
type chunk_expr = CVec of (Chunk.t -> vval) | CRow of (Relation.row -> Value.t)

let chunk_compile schema e =
  match vcompile schema e with
  | Some (f, _, _) -> CVec f
  | None -> CRow (compile schema e)

(* [rows] is the lazily materialized row view of the chunk, shared by
   every row-compiled expression of the operator.  It is created and
   forced within a single morsel task, so the lazy cell never crosses
   domains. *)
let chunk_eval_col ce (ch : Chunk.t) rows : Chunk.col =
  match ce with
  | CVec f -> col_of_vval ch.Chunk.length (f ch)
  | CRow g ->
    let rows = Lazy.force rows in
    let n = ch.Chunk.length in
    let out = Array.make n Value.Null in
    for i = 0 to n - 1 do
      out.(i) <- g rows.(i)
    done;
    Chunk.col_of_values out

(* ---- chunked operators ---- *)

let chunked_filter ?cancel ~jobs ct pred =
  let pf =
    match vcompile ct.c_schema pred with
    | Some (f, _, _) -> `Vec f
    | None -> `Row (predicate ct.c_schema pred)
  in
  let out =
    Parallel.init ?cancel ~jobs (Array.length ct.c_chunks) (fun ci ->
        let ch = ct.c_chunks.(ci) in
        let n = ch.Chunk.length in
        let mask =
          match pf with
          | `Vec f -> truth_mask (f ch) n
          | `Row p ->
            let rows = Chunk.rows_of ch in
            let m = Array.make n false in
            for i = 0 to n - 1 do
              m.(i) <- p rows.(i)
            done;
            m
        in
        let count = ref 0 in
        Array.iter (fun b -> if b then incr count) mask;
        if !count = n then Some ch
        else if !count = 0 then None
        else begin
          let sel = Array.make !count 0 in
          let k = ref 0 in
          for i = 0 to n - 1 do
            if mask.(i) then begin
              sel.(!k) <- i;
              incr k
            end
          done;
          Some (Chunk.gather ch sel)
        end)
  in
  let chunks = Array.of_list (List.filter_map Fun.id (Array.to_list out)) in
  note_chunks chunks;
  { ct with c_chunks = chunks }

let chunked_project ?cancel ~jobs ct items =
  let ces =
    Array.of_list (List.map (fun (e, _) -> chunk_compile ct.c_schema e) items)
  in
  let out =
    Parallel.init ?cancel ~jobs (Array.length ct.c_chunks) (fun ci ->
        let ch = ct.c_chunks.(ci) in
        let rows = lazy (Chunk.rows_of ch) in
        {
          Chunk.length = ch.Chunk.length;
          cols = Array.map (fun ce -> chunk_eval_col ce ch rows) ces;
        })
  in
  note_chunks out;
  { c_schema = infer_ctable_schema (List.map snd items) out; c_chunks = out }

(* Chunk-at-a-time hash join.  The build side is flattened into one
   batch so bucket entries are plain global row ids; the build is
   radix-partitioned by key hash exactly like the row path; probes run
   one morsel per left chunk against the read-only partition tables.
   Output order — left chunks in index order, left rows ascending,
   bucket ids ascending — is the serial row join's order. *)
let chunked_hash_join ?cancel ~jobs lct rct ~left_keys ~right_keys =
  let ls = lct.c_schema and rs = rct.c_schema in
  let out_schema = Schema.append ls rs in
  let lkc = Array.of_list (List.map (chunk_compile ls) left_keys) in
  let rkc = Array.of_list (List.map (chunk_compile rs) right_keys) in
  let nkeys = Array.length lkc in
  let rchunk = Chunk.concat ~arity:(Schema.arity rs) rct.c_chunks in
  let nr = rchunk.Chunk.length in
  let rkeys = Array.make nr None in
  if nr > 0 then begin
    let rrows = lazy (Chunk.rows_of rchunk) in
    let kcols = Array.map (fun ce -> chunk_eval_col ce rchunk rrows) rkc in
    let cap = max 1 !Chunk.default_rows in
    Parallel.run ?cancel ~jobs ((nr + cap - 1) / cap) (fun si ->
        let lo = si * cap in
        let hi = min nr (lo + cap) - 1 in
        for i = lo to hi do
          let key = Array.init nkeys (fun j -> Chunk.cell kcols.(j) i) in
          if not (Array.exists Value.is_null key) then rkeys.(i) <- Some key
        done)
  end;
  let nparts = min (max 1 jobs) Parallel.max_jobs in
  let tables =
    Parallel.init ?cancel ~jobs nparts (fun p ->
        let tbl : int list ref Ktbl.t = Ktbl.create (max 16 (nr / nparts)) in
        for i = 0 to nr - 1 do
          match rkeys.(i) with
          | Some key when key_pid ~nparts key = p -> (
            match Ktbl.find_opt tbl key with
            | Some ids -> ids := i :: !ids
            | None -> Ktbl.add tbl key (ref [ i ]))
          | _ -> ()
        done;
        Ktbl.iter (fun _ ids -> ids := List.rev !ids) tbl;
        tbl)
  in
  let out =
    Parallel.init ?cancel ~jobs (Array.length lct.c_chunks) (fun ci ->
        let ch = lct.c_chunks.(ci) in
        let n = ch.Chunk.length in
        let rows = lazy (Chunk.rows_of ch) in
        let kcols = Array.map (fun ce -> chunk_eval_col ce ch rows) lkc in
        let lsel = ref (Array.make 16 0) and rsel = ref (Array.make 16 0) in
        let count = ref 0 in
        let push li ri =
          if !count = Array.length !lsel then begin
            let nl = Array.make (2 * !count) 0 and nr' = Array.make (2 * !count) 0 in
            Array.blit !lsel 0 nl 0 !count;
            Array.blit !rsel 0 nr' 0 !count;
            lsel := nl;
            rsel := nr'
          end;
          !lsel.(!count) <- li;
          !rsel.(!count) <- ri;
          incr count
        in
        for i = 0 to n - 1 do
          let key = Array.init nkeys (fun j -> Chunk.cell kcols.(j) i) in
          if not (Array.exists Value.is_null key) then
            match Ktbl.find_opt tables.(key_pid ~nparts key) key with
            | None -> ()
            | Some ids -> List.iter (fun ri -> push i ri) !ids
        done;
        if !count = 0 then None
        else begin
          let lg = Chunk.gather ch (Array.sub !lsel 0 !count) in
          let rg = Chunk.gather rchunk (Array.sub !rsel 0 !count) in
          Some
            {
              Chunk.length = !count;
              cols = Array.append lg.Chunk.cols rg.Chunk.cols;
            }
        end)
  in
  let chunks = Array.of_list (List.filter_map Fun.id (Array.to_list out)) in
  note_chunks chunks;
  { c_schema = out_schema; c_chunks = chunks }

(* Group-hash-partitioned chunked aggregation, mirroring the row
   path's [run_aggregate]: key and argument expressions are evaluated
   vectorized over the chunks as they stand, then groups — not row
   ranges — are partitioned by key hash.  A partition owns every row
   of its groups and feeds them in global row order, so per-group
   accumulation (including float order) is exactly the serial one;
   merging sorts partitions' groups by first-occurrence row index,
   recovering serial group order.  There is no partial merge and hence
   no float reassociation: the chunked aggregate is bit-identical to
   the row executor at any jobs count and any upstream chunk shape,
   and the hash work per row is done once (the old morsel-partial
   scheme re-discovered most groups in every morsel at high group
   cardinality — the ~2x filter-agg regression of ROADMAP item 1b). *)
let chunked_aggregate ?cancel ~jobs ct ~group_by ~items ~having =
  let in_schema = ct.c_schema in
  let key_ces = Array.of_list (List.map (chunk_compile in_schema) group_by) in
  let num_keys = Array.length key_ces in
  let exprs = List.map fst items @ Option.to_list having in
  let aggs = collect_aggs exprs in
  let agg_specs =
    Array.of_list
      (List.map
         (fun e ->
           match (e : Sql.Ast.expr) with
           | Agg (f, None) -> (f, None)
           | Agg (f, Some arg) -> (f, Some (chunk_compile in_schema arg))
           | _ -> assert false)
         aggs)
  in
  let num_aggs = Array.length agg_specs in
  let new_states () = Array.map (fun (f, _) -> new_state f) agg_specs in
  (* zero-length chunks contribute no rows and would stall the span
     walk below *)
  let chunks =
    Array.of_list
      (List.filter
         (fun (c : Chunk.t) -> c.Chunk.length > 0)
         (Array.to_list ct.c_chunks))
  in
  let nchunks = Array.length chunks in
  let total =
    Array.fold_left (fun acc (c : Chunk.t) -> acc + c.Chunk.length) 0 chunks
  in
  (* offsets.(i) = global row index of chunk i's first row *)
  let offsets = Array.make (nchunks + 1) 0 in
  Array.iteri
    (fun i (c : Chunk.t) -> offsets.(i + 1) <- offsets.(i) + c.Chunk.length)
    chunks;
  (* Key and argument expressions are evaluated vectorized, one parallel
     pass over the chunks as they stand — no concat, gather or row
     materialization however irregular the shapes.  Morsels then sit at
     canonical [cap] boundaries over the concatenated row sequence and
     read the evaluated columns through chunk-local spans. *)
  let evaled =
    Parallel.init ?cancel ~jobs nchunks (fun ci ->
        let ch = chunks.(ci) in
        let rows = lazy (Chunk.rows_of ch) in
        ( Array.map (fun ce -> chunk_eval_col ce ch rows) key_ces,
          Array.map
            (fun (_, arg) ->
              Option.map (fun ce -> chunk_eval_col ce ch rows) arg)
            agg_specs ))
  in
  (* keys.(g) = group key of global row g; shared by both paths *)
  let keys = Array.make total [||] in
  Parallel.run ?cancel ~jobs nchunks (fun ci ->
      let kcols, _ = evaled.(ci) in
      let base = offsets.(ci) in
      for i = 0 to chunks.(ci).Chunk.length - 1 do
        keys.(base + i) <- Array.init num_keys (fun j -> Chunk.cell kcols.(j) i)
      done);
  let feed_row states acols i =
    for a = 0 to num_aggs - 1 do
      match acols.(a) with
      | None -> feed states.(a) None
      | Some col -> feed states.(a) (Some (Chunk.cell col i))
    done
  in
  let finished_rows =
    if num_keys > 0 && use_parallel ~jobs total then begin
      let nparts = min jobs Parallel.max_jobs in
      let pids = Array.make total 0 in
      Parallel.run ?cancel ~jobs nchunks (fun ci ->
          let base = offsets.(ci) in
          for i = 0 to chunks.(ci).Chunk.length - 1 do
            pids.(base + i) <- key_pid ~nparts keys.(base + i)
          done);
      let per_part =
        Parallel.init ?cancel ~jobs nparts (fun p ->
            let groups = Ktbl.create 64 in
            (* (first-occurrence row index, key, states), reversed *)
            let entries = ref [] in
            for ci = 0 to nchunks - 1 do
              let _, acols = evaled.(ci) in
              let base = offsets.(ci) in
              for i = 0 to chunks.(ci).Chunk.length - 1 do
                let g = base + i in
                if pids.(g) = p then begin
                  let states =
                    match Ktbl.find_opt groups keys.(g) with
                    | Some states -> states
                    | None ->
                      let states = new_states () in
                      Ktbl.add groups keys.(g) states;
                      entries := (g, keys.(g), states) :: !entries;
                      states
                  in
                  feed_row states acols i
                end
              done
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
      for ci = 0 to nchunks - 1 do
        let _, acols = evaled.(ci) in
        let base = offsets.(ci) in
        for i = 0 to chunks.(ci).Chunk.length - 1 do
          let states =
            match Ktbl.find_opt groups keys.(base + i) with
            | Some states -> states
            | None ->
              let states = new_states () in
              Ktbl.add groups keys.(base + i) states;
              order := keys.(base + i) :: !order;
              states
          in
          feed_row states acols i
        done
      done;
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

(* ---- main interpreter ----

   The interpreter threads a [hook] around every node's evaluation so
   that {!run_profiled} can record per-operator statistics without a
   second copy of the evaluation logic.

   [chunked] selects the columnar executor for
   Filter/Project/Hash_join/Aggregate (the hash join keeps the serial
   row path under a budget, whose Truncate prefix is defined by
   per-row emission order).  [fuse] additionally lets maximal
   chunk-friendly subtrees evaluate column-to-column, skipping the
   row materialization between operators; it is disabled under
   budgets, telemetry, and profiling, which all need per-node row
   boundaries.  Fused and unfused runs return identical results. *)

type ctx = {
  budget : Budget.t option;
  jobs : int;
  hook : Plan.t -> (unit -> Relation.t) -> Relation.t;
  catalog : catalog;
  chunked : bool;
  fuse : bool;
  spill : spill option;
}

(* spill decisions need materialized join inputs, so a spill-enabled
   execution keeps per-node row boundaries *)
let can_fuse ctx =
  ctx.fuse && ctx.chunked
  && Option.is_none ctx.budget
  && Option.is_none ctx.spill
  && not (Telemetry.Control.enabled ())

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
  run_hooked { ctx with hook = (fun _ f -> f ()); fuse = true } plan

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

(* the columnar input of a chunked operator: a fused chunk-friendly
   subtree evaluates column-to-column; anything else goes through the
   row interpreter (keeping per-node hooks, spans, and budget
   boundaries) and is pivoted at the operator's edge *)
and input_ctable ctx (input : Plan.t) : ctable =
  if can_fuse ctx && Plan.chunk_friendly input then eval_ctable ctx input
  else
    let cancel = region_cancel ctx.budget in
    ctable_of_relation ?cancel ~jobs:ctx.jobs (run_child ctx input)

and eval_ctable ctx (plan : Plan.t) : ctable =
  let cancel = region_cancel ctx.budget in
  match resolve_node ctx plan with
  | Scan { table; alias } ->
    let rel =
      try ctx.catalog.relation table
      with Not_found -> exec_errorf "unknown table %s" table
    in
    let schema = Schema.rename ~prefix:alias (Relation.schema rel) in
    ctable_of_relation ?cancel ~jobs:ctx.jobs
      (Relation.of_array schema (Relation.rows rel))
  | Filter { input; pred } ->
    chunked_filter ?cancel ~jobs:ctx.jobs (input_ctable ctx input) pred
  | Project { input; items } ->
    chunked_project ?cancel ~jobs:ctx.jobs (input_ctable ctx input) items
  | Hash_join { left; right; left_keys; right_keys } ->
    chunked_hash_join ?cancel ~jobs:ctx.jobs (input_ctable ctx left)
      (input_ctable ctx right) ~left_keys ~right_keys
  | Index_join _ | Left_outer_join _ | Cross _ | Aggregate _ | Sort _
  | Distinct _ | Limit _ ->
    (* [input_ctable] only routes chunk-friendly nodes here *)
    assert false

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
    if ctx.chunked then
      relation_of_ctable ?cancel ~jobs
        (chunked_filter ?cancel ~jobs (input_ctable ctx input) pred)
    else
      let rel = run_child ctx input in
      run_filter ?cancel ~jobs (predicate (Relation.schema rel) pred) rel
  | Project { input; items } ->
    if ctx.chunked then
      relation_of_ctable ?cancel ~jobs
        (chunked_project ?cancel ~jobs (input_ctable ctx input) items)
    else begin
      let rel = run_child ctx input in
      let schema = Relation.schema rel in
      let fns = List.map (fun (e, _) -> compile schema e) items in
      let rows =
        run_map_rows ?cancel ~jobs
          (fun row -> Array.of_list (List.map (fun f -> f row) fns))
          rel
      in
      Relation.create (infer_schema (List.map snd items) rows) rows
    end
  | Hash_join { left; right; left_keys; right_keys } -> (
    (* with a budget the join stays on the serial row path: rows are
       charged as they are emitted, and the Truncate prefix is defined
       by that per-row order *)
    match ctx.spill with
    | Some sp ->
      (* spill-eligible executions materialize both sides first (the
         threshold needs the build cardinality); below the threshold
         the ordinary row join runs over them *)
      let lrel = run_child ctx left and rrel = run_child ctx right in
      if Relation.cardinality rrel >= sp.spill_rows then
        run_spill_hash_join ?budget ~spill:sp lrel rrel ~left_keys ~right_keys
      else run_hash_join ?budget ~jobs lrel rrel ~left_keys ~right_keys
    | None ->
      if ctx.chunked && Option.is_none budget then
        relation_of_ctable ?cancel ~jobs
          (chunked_hash_join ?cancel ~jobs (input_ctable ctx left)
             (input_ctable ctx right) ~left_keys ~right_keys)
      else
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
    if ctx.chunked then
      chunked_aggregate ?cancel ~jobs (input_ctable ctx input) ~group_by ~items
        ~having
    else
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

let run ?budget ?(jobs = 1) ?(chunked = true) ?spill catalog plan =
  let ctx =
    { budget; jobs; hook = (fun _ f -> f ()); catalog; chunked; fuse = true;
      spill }
  in
  (* evaluation-time type errors surface as engine errors *)
  try run_to_stop budget (fun () -> run_hooked ctx plan)
  with Expr.Type_error msg -> raise (Exec_error msg)

type profile = {
  operator : string;
  out_rows : int;
  elapsed : float;
  children : profile list;
}

let run_profiled ?budget ?(jobs = 1) ?(chunked = true) ?spill catalog plan =
  (* a stack of children accumulators: the hook pushes a frame before
     evaluating a node and folds the completed profile into the
     parent's frame afterwards.  Fusion stays off so every node keeps
     its own row boundary (and hence an accurate out_rows). *)
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
  let ctx = { budget; jobs; hook; catalog; chunked; fuse = false; spill } in
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
