type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of int

type ty = TBool | TInt | TFloat | TString | TDate

let type_of = function
  | Null -> None
  | Bool _ -> Some TBool
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | String _ -> Some TString
  | Date _ -> Some TDate

let ty_name = function
  | TBool -> "BOOLEAN"
  | TInt -> "INTEGER"
  | TFloat -> "FLOAT"
  | TString -> "VARCHAR"
  | TDate -> "DATE"

let is_null = function Null -> true | _ -> false

(* Rank of the type tag, used to keep the order total across types.
   Numeric values (Int/Float) share a rank so that they compare
   numerically with each other. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | String _ -> 3
  | Date _ -> 4

(* Exact comparison of an int against a float.  Rounding the int to
   float first would be lossy above 2^53 — distinct ints would compare
   equal to the same float, breaking transitivity of [equal] (and with
   it distinct/sort/join keys).  Instead: NaN sorts above every int
   (matching [Float.compare]'s total order); floats beyond the native
   int range compare by sign; otherwise the float's integral part fits
   an int exactly, so compare that, then the fractional part. *)
let compare_int_float x y =
  if Float.is_nan y then 1 (* [Float.compare] sorts NaN below everything *)
  else if y >= 4.611686018427387904e18 (* 2^62 > max_int *) then -1
  else if y < -4.611686018427387904e18 (* min_int as a float *) then 1
  else begin
    let ty = Float.trunc y in
    (* |ty| <= 2^62 and integral, so the conversion is exact *)
    let iy = int_of_float ty in
    if x < iy then -1
    else if x > iy then 1
    else
      let frac = y -. ty in
      if frac > 0.0 then -1 else if frac < 0.0 then 1 else 0
  end

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | String x, String y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  | (Null | Bool _ | Int _ | Float _ | String _ | Date _), _ ->
    Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Hashing must agree with [compare]'s equality classes, which for
   floats are coarser than bit equality: [Float.compare (-0.) 0. = 0]
   and NaN equals NaN under the total order.  [Hashtbl.hash] already
   collapses -0.0 onto 0.0 and every NaN payload onto one bucket, so
   hashing the raw float is safe ([Int64.bits_of_float] would split
   -0.0 from 0.0 and scatter NaNs).  Ints hash through their float
   image so that Int 2 and Float 2.0 — equal under [compare] — share a
   bucket. *)
let hash = function
  | Null -> 17
  | Bool b -> Hashtbl.hash b
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | String s -> Hashtbl.hash s
  | Date d -> 31 * Hashtbl.hash d + 5

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Date d -> Some (float_of_int d)
  | Null | String _ -> None

let to_int = function
  | Int i -> Some i
  | Float f -> Some (int_of_float f)
  | Bool b -> Some (if b then 1 else 0)
  | Date d -> Some d
  | Null | String _ -> None

(* Civil-date conversion (proleptic Gregorian), after Howard Hinnant's
   algorithms: days_from_civil and civil_from_days. *)

let days_of_civil ~year ~month ~day =
  let y = if month <= 2 then year - 1 else year in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - era * 400 in
  let mp = (month + 9) mod 12 in
  let doy = (153 * mp + 2) / 5 + day - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_of_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - era * 146097 in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + era * 400 in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let day = doy - ((153 * mp + 2) / 5) + 1 in
  let month = if mp < 10 then mp + 3 else mp - 9 in
  let year = if month <= 2 then y + 1 else y in
  (year, month, day)

let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month ~year ~month =
  match month with
  | 2 -> if is_leap_year year then 29 else 28
  | 4 | 6 | 9 | 11 -> 30
  | _ -> 31

(* [YYYY-MM-DD] in ASCII digits, and nothing else: [int_of_string]
   alone would also take [_] separators, [0x]/[0o]/[0b] prefixes, a
   sign and short parts *)
let is_digit c = c >= '0' && c <= '9'

let looks_like_date s =
  String.length s = 10 && s.[4] = '-' && s.[7] = '-'
  && is_digit s.[0] && is_digit s.[1] && is_digit s.[2] && is_digit s.[3]
  && is_digit s.[5] && is_digit s.[6] && is_digit s.[8] && is_digit s.[9]

let date_of_string s =
  let fail () = invalid_arg (Printf.sprintf "Value.date_of_string: %S" s) in
  if not (looks_like_date s) then fail ();
  match List.map int_of_string (String.split_on_char '-' s) with
  | [ year; month; day ] ->
    (* an impossible day would otherwise roll into the next month *)
    if month < 1 || month > 12 || day < 1 || day > days_in_month ~year ~month then fail ()
    else Date (days_of_civil ~year ~month ~day)
  | _ -> fail ()

let string_of_date d =
  let year, month, day = civil_of_days d in
  Printf.sprintf "%04d-%02d-%02d" year month day

let parse s =
  let s' = String.trim s in
  if s' = "" || String.uppercase_ascii s' = "NULL" then Null
  else
    match int_of_string_opt s' with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s' with
      | Some f -> Float f
      | None ->
        if looks_like_date s' then (try date_of_string s' with Invalid_argument _ -> String s)
        else
          match String.lowercase_ascii s' with
          | "true" -> Bool true
          | "false" -> Bool false
          | _ -> String s)

let to_string = function
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%g" f
  | String s -> s
  | Date d -> string_of_date d

(* [%.15g] is enough for most floats and keeps store files short;
   [%.17g] always reads back exactly.  Digits alone would parse as an
   [Int], so an integral rendering gets a ".0". *)
let to_exact_string = function
  | Float f when not (Float.is_integer f && Float.abs f < 1e15) ->
    let short = Printf.sprintf "%.15g" f in
    let s =
      if Float.equal (float_of_string short) f then short
      else Printf.sprintf "%.17g" f
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s
    else s ^ ".0"
  | v -> to_string v

let to_sql = function
  | Null -> "NULL"
  | Bool b -> if b then "TRUE" else "FALSE"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f
  | String s ->
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '\'';
    String.iter
      (fun c ->
        if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '\'';
    Buffer.contents buf
  | Date d -> Printf.sprintf "DATE '%s'" (string_of_date d)

let pp fmt v = Format.pp_print_string fmt (to_string v)
