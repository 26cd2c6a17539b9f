type row = Value.t array
type t = { schema : Schema.t; rows : row array }

let check_row schema row =
  if Array.length row <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Relation: row arity %d does not match schema arity %d"
         (Array.length row) (Schema.arity schema))

let of_array schema rows =
  Array.iter (check_row schema) rows;
  { schema; rows }

let create schema rows = of_array schema (Array.of_list rows)

let with_schema schema t =
  if Schema.arity schema <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Relation.with_schema: arity %d does not match arity %d"
         (Schema.arity schema) (Schema.arity t.schema));
  { schema; rows = t.rows }

let schema t = t.schema
let cardinality t = Array.length t.rows
let rows t = t.rows
let row_list t = Array.to_list t.rows
let get t i = t.rows.(i)
let is_empty t = cardinality t = 0
let iter f t = Array.iter f t.rows
let fold f init t = Array.fold_left f init t.rows

(* one pass marks the kept rows in a byte mask, so the only other
   allocation is the output array, of its exact size *)
let filter p t =
  let keep = Bytes.init (Array.length t.rows) (fun i -> if p t.rows.(i) then '\001' else '\000') in
  let out = Array.make (Bytes.fold_left (fun n c -> n + Char.code c) 0 keep) [||] in
  let j = ref 0 in
  Bytes.iteri
    (fun i c ->
      if c <> '\000' then begin
        out.(!j) <- t.rows.(i);
        incr j
      end)
    keep;
  { t with rows = out }

let map_rows schema f t =
  let rows = Array.map f t.rows in
  of_array schema rows

let column t name =
  let i = Schema.index_of t.schema name in
  Array.map (fun row -> row.(i)) t.rows

let shares_column a b name =
  match (Schema.index_of_opt a.schema name, Schema.index_of_opt b.schema name) with
  | Some i, Some j ->
    let n = Array.length a.rows in
    let rec same r = r >= n || (a.rows.(r).(i) == b.rows.(r).(j) && same (r + 1)) in
    (a.rows == b.rows && i = j) || (Array.length b.rows = n && same 0)
  | _ -> false

let value t row name = row.(Schema.index_of t.schema name)

let project t names =
  let indices = List.map (Schema.index_of t.schema) names in
  let schema = Schema.project t.schema names in
  map_rows schema (fun row -> Array.of_list (List.map (fun i -> row.(i)) indices)) t

let sort_by cmp t =
  let rows = Array.copy t.rows in
  Array.stable_sort cmp rows;
  { t with rows }

let row_compare a b =
  let n = Array.length a and m = Array.length b in
  if n <> m then Int.compare n m
  else
    let rec go i =
      if i >= n then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

module Row_key = struct
  type t = row

  let equal a b = row_compare a b = 0

  let hash row =
    Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 row
end

module Row_tbl = Hashtbl.Make (Row_key)

let distinct t =
  let seen = Row_tbl.create (cardinality t) in
  let keep = ref [] in
  iter
    (fun row ->
      if not (Row_tbl.mem seen row) then begin
        Row_tbl.add seen row ();
        keep := row :: !keep
      end)
    t;
  { t with rows = Array.of_list (List.rev !keep) }

let append a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Relation.append: schema mismatch";
  { a with rows = Array.append a.rows b.rows }

let equal_as_bags a b =
  Schema.equal a.schema b.schema
  && cardinality a = cardinality b
  &&
  let counts = Row_tbl.create (cardinality a) in
  iter
    (fun row ->
      let c = Option.value ~default:0 (Row_tbl.find_opt counts row) in
      Row_tbl.replace counts row (c + 1))
    a;
  try
    iter
      (fun row ->
        match Row_tbl.find_opt counts row with
        | None | Some 0 -> raise Exit
        | Some c -> Row_tbl.replace counts row (c - 1))
      b;
    true
  with Exit -> false

let pp ?(max_rows = 50) fmt t =
  let names = Schema.names t.schema in
  let shown = min max_rows (cardinality t) in
  let cells =
    Array.init shown (fun i -> Array.map Value.to_string t.rows.(i))
  in
  let widths =
    List.mapi
      (fun j name ->
        Array.fold_left
          (fun w cell -> max w (String.length cell.(j)))
          (String.length name) cells)
      names
  in
  let hline () =
    List.iter (fun w -> Format.fprintf fmt "+%s" (String.make (w + 2) '-')) widths;
    Format.fprintf fmt "+@\n"
  in
  let print_cells values =
    List.iteri
      (fun j w -> Format.fprintf fmt "| %-*s " w (List.nth values j))
      widths;
    Format.fprintf fmt "|@\n"
  in
  hline ();
  print_cells names;
  hline ();
  Array.iter (fun cell -> print_cells (Array.to_list cell)) cells;
  hline ();
  if shown < cardinality t then
    Format.fprintf fmt "... (%d rows total)@\n" (cardinality t)

let to_string ?max_rows t = Format.asprintf "%a" (pp ?max_rows) t
