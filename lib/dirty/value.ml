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

(* The general rules, for every spelling the direct path below does
   not classify itself. *)
let parse_general s =
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

(* The bytes [s.[pos] .. s.[pos + len - 1]], without a copy when that
   is all of [s]. *)
let sub s pos len = if pos = 0 && len = String.length s then s else String.sub s pos len

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'
let digit s i = Char.code s.[i] - 48

(* 10^0 .. 10^22, each exact in a double *)
let powers_of_ten =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* [-?D+], [-?D+.D+] or [DDDD-DD-DD]; anything else is [parse_general]'s.
   An int of at most 18 digits cannot overflow.  A decimal whose digits
   form an integer m <= 2^53 with at most 22 after the point is
   m / 10^frac: both operands are exact doubles and the division rounds
   once, so it is the correctly rounded value [float_of_string] gives
   (Clinger's fast path).  A longer decimal goes to [float_of_string]
   directly, which accepts it: no int parse is tried first. *)
let parse_number s pos len =
  let stop = pos + len in
  let neg = s.[pos] = '-' in
  let start = if neg then pos + 1 else pos in
  let i = ref start and m = ref 0 in
  while !i < stop && is_digit s.[!i] && !i - start < 18 do
    m := (10 * !m) + digit s !i;
    incr i
  done;
  let int_digits = !i - start in
  if !i = stop then Int (if neg then - !m else !m)
  else if
    (not neg) && len = 10 && int_digits = 4 && s.[pos + 4] = '-' && s.[pos + 7] = '-'
    && is_digit s.[pos + 5] && is_digit s.[pos + 6] && is_digit s.[pos + 8]
    && is_digit s.[pos + 9]
  then begin
    let month = (10 * digit s (pos + 5)) + digit s (pos + 6) in
    let day = (10 * digit s (pos + 8)) + digit s (pos + 9) in
    if month < 1 || month > 12 || day < 1 || day > days_in_month ~year:!m ~month then
      String (sub s pos len)
    else Date (days_of_civil ~year:!m ~month ~day)
  end
  else if !i + 1 < stop && s.[!i] = '.' then begin
    let point = !i in
    incr i;
    while !i < stop && is_digit s.[!i] do
      incr i
    done;
    if !i < stop then parse_general (sub s pos len)
    else begin
      let frac = stop - point - 1 in
      if int_digits + frac <= 18 && frac <= 22 then begin
        for k = point + 1 to stop - 1 do
          m := (10 * !m) + digit s k
        done;
        if !m <= 0x20000000000000 then begin
          let f = float_of_int !m /. powers_of_ten.(frac) in
          Float (if neg then -.f else f)
        end
        else Float (float_of_string (sub s pos len))
      end
      else Float (float_of_string (sub s pos len))
    end
  end
  else parse_general (sub s pos len)

let rec has_char s i stop c1 c2 =
  i < stop && (s.[i] = c1 || s.[i] = c2 || has_char s (i + 1) stop c1 c2)

(* the cell against the lowercase [word], ignoring ASCII case *)
let word_is s pos len word =
  len = String.length word
  &&
  let rec go k = k >= len || (Char.lowercase_ascii s.[pos + k] = word.[k] && go (k + 1)) in
  go 0

(* A letter-initial cell that [String.trim] leaves alone.  It is never
   an int, and it is a float only as [strtod]'s inf/infinity/nan
   (any case, [nan(...)] included) once [float_of_string] has dropped
   its underscores: those spellings, and any i/n-word with a [_] or
   [(], go to [parse_general]. *)
let parse_word s pos len =
  let c = Char.lowercase_ascii s.[pos] in
  if
    (c = 'i' || c = 'n')
    && (word_is s pos len "nan" || word_is s pos len "inf" || word_is s pos len "infinity"
       || has_char s pos (pos + len) '_' '(')
  then parse_general (sub s pos len)
  else if word_is s pos len "null" then Null
  else if word_is s pos len "true" then Bool true
  else if word_is s pos len "false" then Bool false
  else String (sub s pos len)

let parse_sub s pos len =
  if len = 0 then Null
  else
    let c = s.[pos] in
    if is_digit c || (c = '-' && len > 1 && is_digit s.[pos + 1]) then parse_number s pos len
    else if is_letter c && not (is_space s.[pos + len - 1]) then parse_word s pos len
    else parse_general (sub s pos len)

let parse s = parse_sub s 0 (String.length s)

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
