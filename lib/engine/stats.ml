open Dirty

type histogram = { bounds : float array; depth : float }

type column_stats = {
  distinct : int;
  nulls : int;
  min : Value.t option;
  max : Value.t option;
  histogram : histogram option;
}

let histogram_buckets = 32

let build_histogram values =
  (* equi-depth over the numeric image; [values] are non-null *)
  let numeric =
    Array.of_seq
      (Seq.filter_map Value.to_float (Array.to_seq values))
  in
  let n = Array.length numeric in
  if n < 2 then None
  else begin
    Array.sort Float.compare numeric;
    let buckets = min histogram_buckets n in
    let depth = float_of_int n /. float_of_int buckets in
    let bounds =
      Array.init buckets (fun i ->
          let pos =
            min (n - 1)
              (int_of_float (Float.round (float_of_int (i + 1) *. depth)) - 1)
          in
          numeric.(max 0 pos))
    in
    Some { bounds; depth }
  end

let range_fraction hist ?lo ?hi () =
  let bounds = hist.bounds in
  let buckets = Array.length bounds in
  if buckets = 0 then 0.0
  else begin
    let low = Option.value ~default:Float.neg_infinity lo in
    let high = Option.value ~default:Float.infinity hi in
    if high <= low then 0.0
    else begin
      (* fraction of mass at or below x, linear within buckets *)
      let cdf x =
        if x < bounds.(0) then 0.0
        else if x >= bounds.(buckets - 1) then 1.0
        else begin
          (* binary search for the bucket containing x: the smallest i
             with bounds.(i) >= x.  This probe sits on the planner's
             selectivity path, so it must not be O(buckets). *)
          let rec find lo hi =
            (* invariant: bounds.(hi) >= x and bounds.(lo - 1) < x *)
            if lo >= hi then hi
            else
              let mid = (lo + hi) / 2 in
              if bounds.(mid) >= x then find lo mid else find (mid + 1) hi
          in
          let i = find 0 (buckets - 1) in
          let lower = if i = 0 then bounds.(0) else bounds.(i - 1) in
          let upper = bounds.(i) in
          let within =
            if upper <= lower then 1.0 else (x -. lower) /. (upper -. lower)
          in
          (float_of_int i +. Float.max 0.0 (Float.min 1.0 within))
          /. float_of_int buckets
        end
      in
      Float.max 0.0 (cdf high -. cdf low)
    end
  end

type t = { rows : int; columns : (string * column_stats) list }

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let analyze_column rel name =
  let values = Relation.column rel name in
  let seen = Vtbl.create 64 in
  let nulls = ref 0 in
  let mn = ref None and mx = ref None in
  Array.iter
    (fun v ->
      if Value.is_null v then incr nulls
      else begin
        Vtbl.replace seen v ();
        (match !mn with
        | None -> mn := Some v
        | Some m -> if Value.compare v m < 0 then mn := Some v);
        match !mx with
        | None -> mx := Some v
        | Some m -> if Value.compare v m > 0 then mx := Some v
      end)
    values;
  {
    distinct = Vtbl.length seen;
    nulls = !nulls;
    min = !mn;
    max = !mx;
    histogram = build_histogram values;
  }

let m_columns_analyzed =
  Telemetry.Metrics.counter "engine.stats.columns_analyzed"
    ~help:"columns whose statistics were computed from their values"

let m_columns_reused =
  Telemetry.Metrics.counter "engine.stats.columns_reused"
    ~help:"columns whose statistics carried over from the previous relation"

let column t name = Option.map snd (List.find_opt (fun (n, _) -> n = name) t.columns)

(* A column's statistics are a function of its cells alone, so when
   every cell is physically the cell [prev] was analyzed over they are
   bit-identical to a fresh analysis.  [Value.equal] would not do:
   [Int 2] and [Float 2.0] are equal but give different min/max
   representatives. *)
let analyze ?prev rel =
  let carried name =
    match prev with
    | Some (prel, pstats) when Relation.shares_column prel rel name -> column pstats name
    | _ -> None
  in
  let columns =
    List.map
      (fun n ->
        match carried n with
        | Some cs ->
          Telemetry.Metrics.inc m_columns_reused;
          (n, cs)
        | None ->
          Telemetry.Metrics.inc m_columns_analyzed;
          (n, analyze_column rel n))
      (Schema.names (Relation.schema rel))
  in
  { rows = Relation.cardinality rel; columns }

(* Textbook default selectivities. *)
let default_eq = 0.1
let default_range = 1.0 /. 3.0
let default_like = 0.25
let default_other = 0.5

let unqualified (c : Sql.Ast.column) = c.name

let column_histogram stats c =
  Option.bind
    (Option.bind stats (fun s -> column s (unqualified c)))
    (fun cs -> cs.histogram)

let rec selectivity stats (e : Sql.Ast.expr) =
  let clamp x = Float.min 1.0 (Float.max 0.0 x) in
  let range_est c ~lo ~hi =
    match column_histogram stats c with
    | Some hist -> clamp (range_fraction hist ?lo ?hi ())
    | None -> default_range
  in
  match e with
  | Binop (And, a, b) -> clamp (selectivity stats a *. selectivity stats b)
  | Binop (Or, a, b) ->
    let sa = selectivity stats a and sb = selectivity stats b in
    clamp (sa +. sb -. (sa *. sb))
  | Unop (Not, a) -> clamp (1.0 -. selectivity stats a)
  | Binop (Eq, Col c, Lit _) | Binop (Eq, Lit _, Col c) -> (
    match Option.bind stats (fun s -> column s (unqualified c)) with
    | Some { distinct; _ } when distinct > 0 -> 1.0 /. float_of_int distinct
    | _ -> default_eq)
  (* range predicates on a column against a literal: use the
     equi-depth histogram when available *)
  | Binop ((Lt | Le), Col c, Lit v) | Binop ((Gt | Ge), Lit v, Col c) -> (
    match Value.to_float v with
    | Some x -> range_est c ~lo:None ~hi:(Some x)
    | None -> default_range)
  | Binop ((Gt | Ge), Col c, Lit v) | Binop ((Lt | Le), Lit v, Col c) -> (
    match Value.to_float v with
    | Some x -> range_est c ~lo:(Some x) ~hi:None
    | None -> default_range)
  | Between (Col c, Lit lo, Lit hi) -> (
    match Value.to_float lo, Value.to_float hi with
    | Some l, Some h -> range_est c ~lo:(Some l) ~hi:(Some h)
    | _ -> default_range)
  | Binop ((Lt | Le | Gt | Ge), _, _) | Between (_, _, _) -> default_range
  | Like _ | Not_like _ -> default_like
  | In_list (Col c, values) -> (
    match Option.bind stats (fun s -> column s (unqualified c)) with
    | Some { distinct; _ } when distinct > 0 ->
      clamp (float_of_int (List.length values) /. float_of_int distinct)
    | _ -> clamp (default_eq *. float_of_int (List.length values)))
  | Binop (Neq, _, _) -> 0.9
  | Is_null _ -> 0.05
  | Is_not_null _ -> 0.95
  | _ -> default_other
