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

(* Sorting the numeric image in place, without a comparator closure or
   a boxed float.  Off NaN, [<] agrees with [Float.compare] ([-0.] and
   [0.] tie under both, so either may come first). *)

let swap a i j =
  let x = Float.Array.get a i in
  Float.Array.set a i (Float.Array.get a j);
  Float.Array.set a j x

(* heapsort of [a.(lo) .. a.(hi - 1)] *)
let heapsort a lo hi =
  let len = hi - lo in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c =
        if l + 1 < len && Float.Array.get a (lo + l) < Float.Array.get a (lo + l + 1)
        then l + 1
        else l
      in
      if Float.Array.get a (lo + i) < Float.Array.get a (lo + c) then begin
        swap a (lo + i) (lo + c);
        sift c len
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for last = len - 1 downto 1 do
    swap a lo (lo + last);
    sift 0 last
  done

let insertion_sort a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = Float.Array.get a i in
    let j = ref i in
    while !j > lo && x < Float.Array.get a (!j - 1) do
      Float.Array.set a !j (Float.Array.get a (!j - 1));
      decr j
    done;
    Float.Array.set a !j x
  done

(* Put the value of sorted rank [p] at [a.(p)] for every [p] in
   [positions] (ascending), within [a.(lo) .. a.(hi - 1)]: an introsort
   that only descends into parts holding such a rank.  Quicksort
   around a median-of-three pivot with a three-way partition (columns
   repeat values a lot), insertion sort for short parts, and heapsort
   once [depth] partitions deep, which bounds the worst case by
   n log n. *)
let rec select a positions lo hi depth =
  if Array.exists (fun p -> p >= lo && p < hi) positions then
    if hi - lo <= 16 then insertion_sort a lo hi
    else if depth = 0 then heapsort a lo hi
    else begin
      let x = Float.Array.get a lo
      and y = Float.Array.get a ((lo + hi) / 2)
      and z = Float.Array.get a (hi - 1) in
      let pivot =
        if x < y then if y < z then y else if x < z then z else x
        else if x < z then x
        else if y < z then z
        else y
      in
      (* a.(lo .. lt-1) < pivot = a.(lt .. i-1), a.(gt+1 .. hi-1) > pivot *)
      let lt = ref lo and i = ref lo and gt = ref (hi - 1) in
      while !i <= !gt do
        let v = Float.Array.get a !i in
        if v < pivot then begin
          swap a !lt !i;
          incr lt;
          incr i
        end
        else if v > pivot then begin
          swap a !i !gt;
          decr gt
        end
        else incr i
      done;
      select a positions lo !lt (depth - 1);
      select a positions (!gt + 1) hi (depth - 1)
    end

(* Equi-depth over the numeric image [numeric.(0 .. n - 1)].  Bucket
   [i]'s bound is the value of sorted rank [(i + 1) * depth - 1]
   (rounded) under [Float.compare]: the NaNs lead, so they are moved to
   the front, and only the ranks the bounds read are put in place. *)
let build_histogram numeric n =
  if n < 2 then None
  else begin
    let buckets = min histogram_buckets n in
    let depth = float_of_int n /. float_of_int buckets in
    let positions =
      Array.init buckets (fun i ->
          max 0
            (min (n - 1)
               (int_of_float (Float.round (float_of_int (i + 1) *. depth)) - 1)))
    in
    let nans = ref 0 in
    for i = 0 to n - 1 do
      if Float.is_nan (Float.Array.get numeric i) then begin
        swap numeric i !nans;
        incr nans
      end
    done;
    let log2 = ref 0 in
    while 1 lsl !log2 < n do
      incr log2
    done;
    select numeric positions !nans n (2 * !log2);
    Some { bounds = Array.map (Float.Array.get numeric) positions; depth }
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

(* A column is analyzed in one pass over the rows that allocates
   nothing per cell.  Distinct values are counted in an open-addressing
   table of row numbers (linear probing, at most half full) under
   [Index.hash_value] and [Value.equal], so [Int 2] and [Float 2.0]
   count once; the numeric image is collected into a [Float.Array] for
   the histogram.  Both are scratch sized by the row count, made once
   per table and reused for each of its columns. *)
type scratch = {
  slots : int array;  (** a row number, or -1 for an empty slot *)
  hashes : int array;  (** the [hash_value] of each slot's cell *)
  numeric : Float.Array.t;
}

let scratch rows =
  let cap = ref 16 in
  while !cap < 2 * rows do
    cap := 2 * !cap
  done;
  {
    slots = Array.make !cap (-1);
    hashes = Array.make !cap 0;
    numeric = Float.Array.create rows;
  }

let analyze_column sc rows j =
  let { slots; hashes; numeric } = sc in
  let mask = Array.length slots - 1 in
  Array.fill slots 0 (Array.length slots) (-1);
  let distinct = ref 0 and nulls = ref 0 and n_numeric = ref 0 in
  let mn = ref Value.Null and mx = ref Value.Null in
  let add_numeric f =
    Float.Array.set numeric !n_numeric f;
    incr n_numeric
  in
  for r = 0 to Array.length rows - 1 do
    let v : Value.t = rows.(r).(j) in
    match v with
    | Null -> incr nulls
    | Bool _ | Int _ | Float _ | String _ | Date _ -> (
      let h = Index.hash_value v in
      let i = ref (h land mask) in
      while
        slots.(!i) >= 0
        && not (hashes.(!i) = h && Value.equal rows.(slots.(!i)).(j) v)
      do
        i := (!i + 1) land mask
      done;
      if slots.(!i) < 0 then begin
        slots.(!i) <- r;
        hashes.(!i) <- h;
        incr distinct
      end;
      (* the first non-null cell, then any strictly smaller (larger) *)
      if Value.is_null !mn then begin
        mn := v;
        mx := v
      end
      else begin
        if Value.compare v !mn < 0 then mn := v;
        if Value.compare v !mx > 0 then mx := v
      end;
      match v with
      | Int i | Date i -> add_numeric (float_of_int i)
      | Float f -> add_numeric f
      | Bool b -> add_numeric (if b then 1.0 else 0.0)
      | Null | String _ -> ())
  done;
  let some v = if Value.is_null v then None else Some v in
  {
    distinct = !distinct;
    nulls = !nulls;
    min = some !mn;
    max = some !mx;
    histogram = build_histogram numeric !n_numeric;
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
  let rows = Relation.rows rel in
  let sc = lazy (scratch (Array.length rows)) in
  let columns =
    List.mapi
      (fun j n ->
        match carried n with
        | Some cs ->
          Telemetry.Metrics.inc m_columns_reused;
          (n, cs)
        | None ->
          Telemetry.Metrics.inc m_columns_analyzed;
          (n, analyze_column (Lazy.force sc) rows j))
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
