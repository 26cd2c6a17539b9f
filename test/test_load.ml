(* The store-load, store-write and statistics paths against reference
   copies of their general-purpose implementations.

   [Value.parse], the CSV scanner with its relation decoder, and
   [Stats.analyze] each take direct paths for the common cases (plain
   numbers, dates and words; raw fields; an open-addressing distinct
   count and a partial sort).  The references below are the plain
   versions those paths must agree with exactly: [String.trim] then
   [int_of_string]/[float_of_string]; a buffer-per-field scanner and a
   [Hashtbl] type vote; a [Hashtbl] over [Value.hash] and a full
   [Array.sort].  Each property draws inputs aimed at the edges of the
   direct paths and requires identical results: value constructors and
   float bits, schema types and cells, the same [Parse_error], the same
   statistics.

   On the write side, a store's table file renders each cell with
   digits written directly instead of through [Printf], and checksums
   its bytes with a slicing-by-8 CRC-32.  Their references are the
   [Printf] rendering and the bytewise table loop, and the text and the
   checksum must be identical. *)

open Dirty

(* ---- reference: Value.parse ---- *)

let ref_looks_like_date s =
  let is_digit c = c >= '0' && c <= '9' in
  String.length s = 10 && s.[4] = '-' && s.[7] = '-'
  && is_digit s.[0] && is_digit s.[1] && is_digit s.[2] && is_digit s.[3]
  && is_digit s.[5] && is_digit s.[6] && is_digit s.[8] && is_digit s.[9]

let ref_parse s : Value.t =
  let s' = String.trim s in
  if s' = "" || String.uppercase_ascii s' = "NULL" then Null
  else
    match int_of_string_opt s' with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s' with
      | Some f -> Float f
      | None ->
        if ref_looks_like_date s' then
          (try Value.date_of_string s' with Invalid_argument _ -> String s)
        else
          match String.lowercase_ascii s' with
          | "true" -> Bool true
          | "false" -> Bool false
          | _ -> String s)

(* ---- reference: the CSV document parser and relation decoder ---- *)

let ref_parse_rows_loc ?(sep = ',') s =
  let n = String.length s in
  let rows = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let seen = ref false in
  let line = ref 1 in
  let row_line = ref 1 in
  let push_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let end_row () =
    if !seen || !fields <> [] || Buffer.length buf > 0 then begin
      push_field ();
      rows := (!row_line, List.rev !fields) :: !rows;
      fields := []
    end;
    seen := false
  in
  let newline () =
    incr line;
    if not (!seen || !fields <> [] || Buffer.length buf > 0) then
      row_line := !line
  in
  let rec go i quoted =
    if i >= n then end_row ()
    else
      let c = s.[i] in
      if quoted then
        if c = '"' then
          if i + 1 < n && s.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            go (i + 2) true
          end
          else go (i + 1) false
        else begin
          if c = '\n' then incr line;
          Buffer.add_char buf c;
          go (i + 1) true
        end
      else if c = '"' && Buffer.length buf = 0 then begin
        seen := true;
        go (i + 1) true
      end
      else if c = sep then begin
        seen := true;
        push_field ();
        go (i + 1) false
      end
      else if c = '\r' && i + 1 < n && s.[i + 1] = '\n' then begin
        end_row ();
        newline ();
        go (i + 2) false
      end
      else if c = '\n' || c = '\r' then begin
        end_row ();
        newline ();
        go (i + 1) false
      end
      else begin
        seen := true;
        Buffer.add_char buf c;
        go (i + 1) false
      end
  in
  go 0 false;
  List.rev !rows

let ref_infer_type values =
  let counts = Hashtbl.create 8 in
  let total = ref 0 in
  List.iter
    (fun v ->
      match Value.type_of v with
      | None -> ()
      | Some ty ->
        incr total;
        let c = Option.value ~default:0 (Hashtbl.find_opt counts ty) in
        Hashtbl.replace counts ty (c + 1))
    values;
  if !total = 0 then Value.TString
  else begin
    let best = ref Value.TString and best_count = ref (-1) in
    Hashtbl.iter
      (fun ty c ->
        if c > !best_count then begin
          best := ty;
          best_count := c
        end)
      counts;
    if !best = Value.TInt && Hashtbl.mem counts Value.TFloat then Value.TFloat
    else if Hashtbl.length counts > 1 && !best <> Value.TFloat then Value.TString
    else !best
  end

let ref_relation_of_string ?(path = "<csv>") s =
  match ref_parse_rows_loc s with
  | [] -> Relation.create (Schema.make []) []
  | (_, names) :: data ->
    let arity = List.length names in
    let parsed =
      List.map
        (fun (line, row) ->
          if List.length row <> arity then
            raise
              (Csv.Parse_error
                 {
                   path;
                   line;
                   msg =
                     Printf.sprintf "row has %d fields, expected %d"
                       (List.length row) arity;
                 });
          List.map ref_parse row)
        data
    in
    let columns =
      List.mapi (fun j _ -> List.map (fun row -> List.nth row j) parsed) names
    in
    let types = List.map ref_infer_type columns in
    Relation.create
      (Schema.make (List.combine names types))
      (List.map Array.of_list parsed)

(* ---- reference: Stats.analyze ---- *)

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let ref_histogram values : Engine.Stats.histogram option =
  let numeric = Array.of_seq (Seq.filter_map Value.to_float (Array.to_seq values)) in
  let n = Array.length numeric in
  if n < 2 then None
  else begin
    Array.sort Float.compare numeric;
    let buckets = min 32 n in
    let depth = float_of_int n /. float_of_int buckets in
    let bounds =
      Array.init buckets (fun i ->
          let pos =
            min (n - 1) (int_of_float (Float.round (float_of_int (i + 1) *. depth)) - 1)
          in
          numeric.(max 0 pos))
    in
    Some { bounds; depth }
  end

let ref_analyze_column rel name : Engine.Stats.column_stats =
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
    histogram = ref_histogram values;
  }

(* ---- comparisons ---- *)

let value_bits_equal (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Float _, _ | _, Float _ -> false
  | _ -> a = b

let show_value (v : Value.t) =
  match v with
  | Null -> "Null"
  | Bool b -> Printf.sprintf "Bool %b" b
  | Int i -> Printf.sprintf "Int %d" i
  | Float f -> Printf.sprintf "Float %h" f
  | String s -> Printf.sprintf "String %S" s
  | Date d -> Printf.sprintf "Date %d" d

let relation_bits_equal a b =
  Schema.attributes (Relation.schema a) = Schema.attributes (Relation.schema b)
  && Relation.cardinality a = Relation.cardinality b
  && Array.for_all2
       (fun r1 r2 -> Array.length r1 = Array.length r2 && Array.for_all2 value_bits_equal r1 r2)
       (Relation.rows a) (Relation.rows b)

type 'a outcome = Done of 'a | Parse_failed of string * int * string | Invalid of string

let outcome f =
  match f () with
  | r -> Done r
  | exception Csv.Parse_error { path; line; msg } -> Parse_failed (path, line, msg)
  | exception Invalid_argument m -> Invalid m

let show_outcome show = function
  | Done r -> show r
  | Parse_failed (path, line, msg) -> Printf.sprintf "Parse_error %s:%d: %s" path line msg
  | Invalid m -> "Invalid_argument " ^ m

let show_relation rel =
  String.concat ", "
    (List.map
       (fun (a : Schema.attribute) -> a.name ^ ":" ^ Value.ty_name a.ty)
       (Schema.attributes (Relation.schema rel)))
  ^ "\n"
  ^ String.concat "\n"
      (Array.to_list
         (Array.map
            (fun row -> String.concat " | " (Array.to_list (Array.map show_value row)))
            (Relation.rows rel)))

(* ---- generators ---- *)

open QCheck.Gen

let edge_cells =
  [ ""; " "; " 12 "; "+5"; "-5"; "-"; "0x1F"; "0b101"; "0o17"; "0u12"; "1_000"; "1e5";
    "1E-3"; "5."; ".5"; "-.5"; "-0"; "-0.0"; "0.0"; "00012"; "007.50"; "nan"; "NaN";
    "n_an"; "nan(1)"; "inf"; "-inf"; "Infinity"; "-Infinity"; "infinity"; "INF";
    "in_f"; "info"; "n"; "N"; "nana"; "TRUE"; "False"; "true "; " false"; "null";
    "NULL "; "Null"; "nul"; "1995-03-01"; "2021-02-30"; "2020-02-29"; "2019-02-29";
    "0000-01-01"; "1995-13-01"; "1995-00-10"; "1995-3-01"; "1995-03-01 ";
    "4-NOT SPECIFIED"; "Clerk#000000574"; "DELIVER IN PERSON"; "x\ty"; "a\n";
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
    "-4611686018427387905"; "9999999999999999999"; "12345678901234567890";
    "123456789012345678"; "0.1"; "0.30000000000000004"; "9007199254740993.0";
    "9007199254740992.5"; "0.22222222222222221"; "51172.116678626349";
    "1.0000000000000000000001"; "123456789.123456789" ]

let digits lo hi = string_size ~gen:(char_range '0' '9') (int_range lo hi)

let number_cell =
  let* sign = oneofl [ ""; ""; "-"; "+" ] in
  let* int_part = digits 1 20 in
  let* shape = int_range 0 3 in
  match shape with
  | 0 -> return (sign ^ int_part)
  | 1 ->
    let* frac = digits 1 24 in
    return (sign ^ int_part ^ "." ^ frac)
  | 2 ->
    let* frac = digits 0 3 in
    let* e = int_range (-30) 30 in
    return (Printf.sprintf "%s%s.%se%d" sign int_part frac e)
  | _ ->
    let* f = float in
    return (Value.to_exact_string (Float f))

let date_cell =
  let* y = int_range 0 9999 in
  let* m = int_range 0 13 in
  let* d = int_range 0 32 in
  return (Printf.sprintf "%04d-%02d-%02d" y m d)

let word_cell =
  string_size
    ~gen:(oneofl [ 'a'; 'n'; 'I'; 'N'; 'f'; 'T'; 'x'; '_'; '('; ')'; ' '; '.'; '1'; '-'; 'e'; '\t' ])
    (int_range 1 9)

let pad cell =
  let* left = oneofl [ ""; ""; ""; " "; "\t" ] in
  let* right = oneofl [ ""; ""; ""; " "; "\n" ] in
  return (left ^ cell ^ right)

let cell_gen =
  frequency
    [
      (3, oneofl edge_cells);
      (3, number_cell);
      (2, date_cell);
      (2, word_cell);
      (2, oneof [ oneofl edge_cells; number_cell; date_cell; word_cell ] >>= pad);
    ]

(* a column's cells: a mix of kinds in proportions that often tie *)
let column_cell kinds =
  let* k = oneofl kinds in
  match k with
  | `Int -> map string_of_int (int_range (-50) 50)
  | `Float -> map (fun f -> Value.to_exact_string (Float f)) (float_range (-10.) 10.)
  | `String -> oneofl [ "x"; "y,z"; "say \"hi\""; "two\nlines"; "DELIVER IN PERSON" ]
  | `Null -> oneofl [ ""; "NULL" ]
  | `Date -> date_cell
  | `Bool -> oneofl [ "true"; "FALSE" ]
  | `Any -> cell_gen

(* one field, rendered raw when that reads back as itself, otherwise
   (or at random) quoted; sometimes with stray quotes *)
let render_field cell =
  let needs = String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') cell in
  let quoted () =
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  in
  let* choice = int_range 0 9 in
  return
    (match choice with
    | 0 -> quoted ()
    | 1 -> "\"" ^ cell (* unbalanced *)
    | 2 -> cell (* raw, even when that splits it *)
    | _ -> if needs then quoted () else cell)

let line_end = oneofl [ "\n"; "\n"; "\r\n"; "\r" ]

let document_gen =
  let* arity = int_range 1 4 in
  let* kinds =
    list_repeat arity
      (oneofl
         [ [ `Int; `String ]; [ `Int; `Float ]; [ `Float; `String ]; [ `Float; `Date ];
           [ `Int; `Null ]; [ `Date; `Bool; `Int ]; [ `Any ]; [ `String; `Null; `Float ] ])
  in
  let* n_rows = int_range 0 8 in
  let* rows =
    list_repeat n_rows
      (let* cells = flatten_l (List.map column_cell kinds) in
       let* short = int_range 0 19 in
       (* now and then a short row mid-file *)
       return (if short = 0 && arity > 1 then List.tl cells else cells))
  in
  let header = List.init arity (Printf.sprintf "c%d") in
  let* fields = flatten_l (List.map (fun r -> flatten_l (List.map render_field r)) (header :: rows)) in
  let* ends = list_repeat (List.length fields) line_end in
  let* blanks = list_repeat (List.length fields) (int_range 0 5) in
  let* last = oneofl [ ""; "\n"; "\r\n" ] in
  let lines =
    List.map2
      (fun (f, e) b -> String.concat "," f ^ e ^ if b = 0 then e else "")
      (List.combine fields ends) blanks
  in
  return (String.concat "" lines ^ last)

(* unstructured documents over the scanner's special bytes *)
let noise_gen =
  string_size ~gen:(oneofl [ 'a'; '1'; ','; ','; '"'; '"'; '\n'; '\r'; ' '; '.' ]) (int_range 0 40)

let stats_cell : Value.t QCheck.Gen.t =
  frequency
    [
      (2, return Value.Null);
      (3, map (fun i -> Value.Int i) (int_range (-5) 5));
      (1, oneofl [ Value.Int max_int; Value.Int min_int; Value.Int (1 lsl 53 + 1) ]);
      (3, map (fun i -> Value.Float (float_of_int i /. 2.)) (int_range (-10) 10));
      (2, oneofl [ Value.Float 0.0; Value.Float (-0.0); Value.Float Float.nan;
                   Value.Float (-.Float.nan); Value.Float Float.infinity;
                   Value.Float Float.neg_infinity; Value.Float 0x1p62 ]);
      (2, map (fun s -> Value.String s) (oneofl [ "a"; "b"; "ab"; "" ]));
      (1, map (fun d -> Value.Date d) (int_range 9000 9010));
      (1, map (fun b -> Value.Bool b) bool);
    ]

let relation_gen =
  let* arity = int_range 1 3 in
  let* n = int_range 0 80 in
  let* rows = list_repeat n (array_repeat arity stats_cell) in
  (* cells repeat physically too, as a decoded column's often do *)
  let rows = Array.of_list rows in
  let* shared = int_range 0 3 in
  if shared > 0 && n > 1 then rows.(n - 1) <- Array.copy rows.(0);
  let schema = Schema.make (List.init arity (fun j -> (Printf.sprintf "c%d" j, Value.TString))) in
  return (Relation.of_array schema rows)

(* ---- the properties ---- *)

let prop_parse =
  QCheck.Test.make ~count:2000 ~name:"Value.parse agrees with the general rules"
    (QCheck.make ~print:(Printf.sprintf "%S") cell_gen)
    (fun cell ->
      let got = Value.parse cell and want = ref_parse cell in
      value_bits_equal got want
      || QCheck.Test.fail_reportf "%S: got %s, want %s" cell (show_value got)
           (show_value want))

let prop_csv =
  QCheck.Test.make ~count:1000
    ~name:"Csv.relation_of_string agrees with the buffer-per-field decoder"
    (QCheck.make ~print:(Printf.sprintf "%S")
       (frequency [ (4, document_gen); (1, noise_gen) ]))
    (fun doc ->
      let same_rows = Csv.parse_rows doc = List.map snd (ref_parse_rows_loc doc) in
      let got = outcome (fun () -> Csv.relation_of_string ~path:"t.csv" doc) in
      let want = outcome (fun () -> ref_relation_of_string ~path:"t.csv" doc) in
      let same =
        match (got, want) with
        | Done a, Done b -> relation_bits_equal a b
        | a, b -> a = b
      in
      (same_rows && same)
      || QCheck.Test.fail_reportf "rows equal: %b\ngot:\n%s\nwant:\n%s" same_rows
           (show_outcome show_relation got)
           (show_outcome show_relation want))

let histogram_equal (a : Engine.Stats.histogram option) (b : Engine.Stats.histogram option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    Float.equal a.depth b.depth
    && Array.length a.bounds = Array.length b.bounds
    && Array.for_all2 Float.equal a.bounds b.bounds
  | _ -> false

let prop_stats =
  QCheck.Test.make ~count:1000 ~name:"Stats.analyze agrees with the hashtable analysis"
    (QCheck.make ~print:show_relation relation_gen)
    (fun rel ->
      let stats = Engine.Stats.analyze rel in
      List.for_all
        (fun name ->
          let got = Option.get (Engine.Stats.column stats name) in
          let want = ref_analyze_column rel name in
          let same_rep a b =
            match (a, b) with None, None -> true | Some x, Some y -> x == y | _ -> false
          in
          (got.distinct = want.distinct && got.nulls = want.nulls
          && same_rep got.min want.min && same_rep got.max want.max
          && histogram_equal got.histogram want.histogram)
          || QCheck.Test.fail_reportf "column %s: distinct %d/%d nulls %d/%d" name
               got.distinct want.distinct got.nulls want.nulls)
        (Schema.names (Relation.schema rel)))

(* ---- reference: the store writer ---- *)

(* civil-from-days, after Howard Hinnant, as [Value] converts dates *)
let ref_civil_of_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let day = doy - (((153 * mp) + 2) / 5) + 1 in
  let month = if mp < 10 then mp + 3 else mp - 9 in
  ((if month <= 2 then y + 1 else y), month, day)

let ref_string_of_date d =
  let year, month, day = ref_civil_of_days d in
  Printf.sprintf "%04d-%02d-%02d" year month day

(* [%.15g] when it reads back, else [%.17g], with a ".0" when the
   digits alone would parse as an int *)
let ref_exact_float f =
  let short = Printf.sprintf "%.15g" f in
  let s = if Float.equal (float_of_string short) f then short else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s else s ^ ".0"

let ref_exact_string (v : Value.t) =
  match v with
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else ref_exact_float f
  | String s -> s
  | Date d -> ref_string_of_date d

(* the bytewise table loop *)
let ref_crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let ref_crc_update crc s =
  let c = ref (crc lxor 0xFFFFFFFF) in
  String.iter (fun ch -> c := ref_crc_table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

(* ---- generators: cells to write ---- *)

let pow10 d = 10.0 ** float_of_int d

let rec nudge f k = if k = 0 then f else if k > 0 then nudge (Float.succ f) (k - 1) else nudge (Float.pred f) (k + 1)

let float_gen =
  let signed g = map2 (fun f neg -> if neg then -.f else f) g bool in
  frequency
    [
      (3, map Int64.float_of_bits ui64);
      (3, signed (map (fun c -> float_of_int c /. 100.0) (int_range 0 100_000_000)));
      (2, map (fun n -> float_of_int n /. 1e6) (int_range 1 999_999));
      (2, map (fun x -> float_of_string (Printf.sprintf "%.6g" x)) (float_range 0.0 1.0));
      (2, map2 (fun x t -> float_of_int x /. float_of_int t) (int_range 1 16) (int_range 16 200));
      ( 2,
        signed
          (map2 (fun n d -> float_of_int n /. pow10 d) (int_range 1 999_999_999) (int_range 0 18)) );
      (1, signed (map2 (fun n d -> float_of_int n /. pow10 d) (int_range 1 max_int) (int_range 0 22)));
      ( 2,
        signed (map2 nudge (oneofl [ 1e-4; 1e15; 0.1; 1.0; 1e14; 9.99999999999999e14 ]) (int_range (-3) 3)) );
      (* binary fractions whose 18th digit is an exact 5: [%.17g] ties,
         which round half to even *)
      ( 1,
        signed
          (map2
             (fun n j -> float_of_int n +. (float_of_int j /. 64.0))
             (int_range 0 999_999_999_999_999) (int_range 1 63)) );
      (1, map (fun b -> Int64.float_of_bits (Int64.of_int b)) (int_range 0 0xFFFFF));
      (1, map float_of_int int);
      ( 1,
        oneofl
          [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 5e-324; Float.max_float;
            Float.min_float; 0x1p53; 1e15; -1e15; 1e16; 123456789012345.6; 0.000123456789012345 ] );
    ]

let write_cell_gen : Value.t QCheck.Gen.t =
  frequency
    [
      (1, return Value.Null);
      (1, map (fun b -> Value.Bool b) bool);
      (2, map (fun i -> Value.Int i) (oneof [ int; int_range (-1000) 1000; oneofl [ min_int; max_int; 0 ] ]));
      (4, map (fun f -> Value.Float f) float_gen);
      ( 2,
        map
          (fun s -> Value.String s)
          (oneof
             [
               oneofl [ ""; ","; "\""; "a,b"; "say \"hi\""; "two\nlines"; "cr\r"; "NULL"; "1.5" ];
               string_size ~gen:(oneofl [ 'a'; ','; '"'; '\n'; '\r'; ' '; '1' ]) (int_range 0 6);
             ]) );
      (2, map (fun d -> Value.Date d) (oneof [ int_range (-800_000) 3_000_000; int_range (-1_000_000_000) 1_000_000_000 ]));
    ]

let show_row row = String.concat " | " (Array.to_list (Array.map show_value row))

let prop_exact_float =
  QCheck.Test.make ~count:5000 ~name:"Value.to_exact_string agrees with the Printf rule"
    (QCheck.make ~print:(Printf.sprintf "%h") float_gen)
    (fun f ->
      let want = ref_exact_string (Float f) in
      let buf = Buffer.create 32 in
      Value.add_exact_string buf (Float f);
      (Value.to_exact_string (Float f) = want && Buffer.contents buf = want)
      || QCheck.Test.fail_reportf "%h: got %S / %S, want %S" f
           (Value.to_exact_string (Float f)) (Buffer.contents buf) want)

let prop_exact_row =
  QCheck.Test.make ~count:2000 ~name:"Csv.add_exact_row agrees with render_line of the Printf rule"
    (QCheck.make ~print:show_row (array_size (int_range 1 5) write_cell_gen))
    (fun row ->
      let want = Csv.render_line (Array.to_list (Array.map ref_exact_string row)) in
      let buf = Buffer.create 64 in
      Csv.add_exact_row buf row;
      let dates_ok =
        Array.for_all
          (function Value.Date d -> Value.string_of_date d = ref_string_of_date d | _ -> true)
          row
      in
      (Buffer.contents buf = want && dates_ok)
      || QCheck.Test.fail_reportf "got %S, want %S (dates agree: %b)" (Buffer.contents buf) want
           dates_ok)

let prop_crc =
  QCheck.Test.make ~count:2000 ~name:"Crc32.update agrees with the bytewise loop"
    (QCheck.make
       ~print:(fun (crc, chunks) -> Printf.sprintf "%x %s" crc (String.concat "|" (List.map (Printf.sprintf "%S") chunks)))
       (pair (int_range 0 0xFFFFFFFF) (list_size (int_range 0 12) (string_size (int_range 0 9)))))
    (fun (crc, chunks) ->
      (* chunk by chunk, so the 8-byte blocks start at every offset of
         the whole string, and each chunk alone *)
      let whole = String.concat "" chunks in
      let want = ref_crc_update crc whole in
      let chained = List.fold_left Fault.Crc32.update crc chunks in
      (chained = want
      && Fault.Crc32.update crc whole = want
      && List.for_all (fun c -> Fault.Crc32.string c = ref_crc_update 0 c) chunks)
      || QCheck.Test.fail_reportf "got %x / %x, want %x" chained (Fault.Crc32.update crc whole) want)

(* ---- the type vote's tie-break ---- *)

let column_type doc =
  Value.ty_name (Schema.attribute_at (Relation.schema (Csv.relation_of_string doc)) 0).ty

(* A tie goes to the first of FLOAT, VARCHAR, DATE, BOOLEAN, INTEGER;
   INTEGER with any FLOAT is FLOAT, any other mix VARCHAR unless FLOAT
   won. *)
let test_tie_break () =
  let check name want doc =
    Alcotest.(check string) name want (column_type doc);
    Alcotest.(check string) (name ^ " (reference)") want
      (Value.ty_name
         (Schema.attribute_at (Relation.schema (ref_relation_of_string doc)) 0).ty)
  in
  check "int = string" "VARCHAR" "v\n1\nx\n2\ny\n";
  check "float = string" "FLOAT" "v\nx\n1.5\n";
  check "string = float" "FLOAT" "v\n1.5\nx\n";
  check "float = date" "FLOAT" "v\n1995-03-01\n2.5\n";
  check "int = float" "FLOAT" "v\n1\n2.5\n";
  check "int > string" "VARCHAR" "v\n1\n2\nx\n";
  check "date = bool" "VARCHAR" "v\n1995-03-01\ntrue\n";
  check "nulls only" "VARCHAR" "v\n\nNULL\n"

let () =
  Alcotest.run "load"
    [
      ( "differential",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_parse; prop_csv; prop_stats; prop_exact_float; prop_exact_row; prop_crc ] );
      ("type vote", [ Alcotest.test_case "tie-break" `Quick test_tie_break ]);
    ]
