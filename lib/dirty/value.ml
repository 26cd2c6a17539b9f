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

let digit_char n = Char.unsafe_chr (48 + n)

let string_of_date d =
  let year, month, day = civil_of_days d in
  if year < 0 || year > 9999 then Printf.sprintf "%04d-%02d-%02d" year month day
  else begin
    let b = Bytes.create 10 in
    let put i n = Bytes.unsafe_set b i (digit_char n) in
    put 0 (year / 1000);
    put 1 (year / 100 mod 10);
    put 2 (year / 10 mod 10);
    put 3 (year mod 10);
    Bytes.unsafe_set b 4 '-';
    put 5 (month / 10);
    put 6 (month mod 10);
    Bytes.unsafe_set b 7 '-';
    put 8 (day / 10);
    put 9 (day mod 10);
    Bytes.unsafe_to_string b
  end

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

(* ---- the storage form ----

   The rule: [%.15g] when it reads back to the same bits, as it does
   for most floats and keeps store files short, else [%.17g], which
   always does.  Digits alone would parse as an [Int], so an integral
   rendering gets a ".0". *)
let exact_float_printf f =
  let short = Printf.sprintf "%.15g" f in
  let s = if Float.equal (float_of_string short) f then short else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s else s ^ ".0"

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (digit_char (n mod 10))

(* [n] in exactly [width] digits, zero-padded *)
let rec add_padded buf n width =
  if width > 0 then begin
    add_padded buf (n / 10) (width - 1);
    Buffer.add_char buf (digit_char (n mod 10))
  end

let add_int buf i =
  if i >= 0 then add_digits buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end

(* 10^d for d <= 18, each exact, as floats and as ints *)
let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15;
     1e16; 1e17; 1e18 |]

let ipow10 = Array.map int_of_float pow10

(* [n / 10^width] in fixed notation, as [%g] writes it: fraction zeros
   stripped, then a ".0" if none is left, as the rule adds.  [n] is
   below 10^18, so with a wider fraction there is no integer part. *)
let add_fixed buf n width =
  let n = ref n and width = ref width in
  while !width > 0 && !n mod 10 = 0 do
    n := !n / 10;
    decr width
  done;
  if !width > 18 then add_digits buf 0 else add_digits buf (!n / ipow10.(!width));
  Buffer.add_char buf '.';
  if !width = 0 then Buffer.add_char buf '0'
  else add_padded buf (if !width > 18 then !n else !n mod ipow10.(!width)) !width

(* The decimal fast path, for a non-integral [a] in [1e-4, 1e15).  It
   looks for the smallest [d] whose [n = round (a·10^d)] is under 10^15
   and reads back as [a]: [n] and [10^d] are exact, so [n /. 10^d] is
   [n / 10^d] correctly rounded, as [float_of_string] reads it.  Such an
   [n / 10^d] has at most 15 significant digits and lies within half an
   ulp of [a], far nearer than any other 15-digit decimal, so it is the
   value [%.15g] prints, in fixed notation since [a >= 1e-4], and the
   rule keeps it as it reads back.  Conversely [%.15g] prints [a] with
   at most [15 - 1 - (-4)] = 18 fraction digits, so when no [d <= 18]
   qualifies, [%.15g] does not read back and the rule takes [%.17g].
   Appends [n / 10^d] and answers true, or appends nothing and answers
   false. *)
let add_short_decimal buf a =
  let rec go d =
    if d > 18 then false
    else
      let n = Float.round (a *. pow10.(d)) in
      if n >= 1e15 then false
      else if n /. pow10.(d) = a then begin
        add_fixed buf (int_of_float n) d;
        true
      end
      else go (d + 1)
  in
  go 0

(* 5^k for k <= 20 *)
let pow5 =
  let a = Array.make 21 1 in
  for k = 1 to 20 do
    a.(k) <- 5 * a.(k - 1)
  done;
  a

(* The 17 significant digits of a positive [a] in [1e-4, 1e15) whose
   decimal exponent is [x] in [-4, 14]: [round (a·10^(16-x))], an int
   in [10^16, 10^17) when [x] is right, computed exactly.  With [a =
   m·2^e] ([m < 2^53]) and [k = 16 - x], that is [m·5^k / 2^s] for [s =
   -(k + e)] (between 1 and 47 in this range), rounded half to even as
   glibc's printf rounds.  [m·5^k] (below 2^100) is formed from 30-bit
   limbs as [hi·2^60 + lo].  -1 if [s] falls outside [1, 59]. *)
let digits17 a x =
  let k = 16 - x in
  let fr, ex = Float.frexp a in
  let m = int_of_float (Float.ldexp fr 53) and s = 53 - ex - k in
  let mask30 = (1 lsl 30) - 1 in
  let m1 = m lsr 30 and m0 = m land mask30 in
  let p1 = pow5.(k) lsr 30 and p0 = pow5.(k) land mask30 in
  let mid = (m0 * p1) + (m1 * p0) in
  let lo = (m0 * p0) + ((mid land mask30) lsl 30) in
  let hi = (m1 * p1) + (mid lsr 30) + (lo lsr 60) in
  let lo = lo land ((1 lsl 60) - 1) in
  (* [hi lsl (60 - s)] must not overflow *)
  if s < 1 || s > 59 || hi >= 1 lsl (s + 1) then -1
  else begin
    let q = (hi lsl (60 - s)) lor (lo lsr s) in
    let r = lo land ((1 lsl s) - 1) and half = 1 lsl (s - 1) in
    if r > half || (r = half && q land 1 = 1) then q + 1 else q
  end

(* [%.17g] of a positive [a] in [1e-4, 1e15), which it writes in fixed
   notation with [16 - x] fraction digits: [x] starts from [log10 a]
   and is corrected until the digits are exactly 17.  Appends and
   answers true, or appends nothing and answers false. *)
let add_digits17 buf a =
  let rec settle x tries =
    if x < -4 || x > 14 || tries > 2 then false
    else
      let d = digits17 a x in
      if d < 0 then false
      else if d >= ipow10.(17) then settle (x + 1) (tries + 1)
      else if d < ipow10.(16) then settle (x - 1) (tries + 1)
      else begin
        add_fixed buf d (16 - x);
        true
      end
  in
  settle (max (-4) (min 14 (int_of_float (Float.floor (Float.log10 a))))) 0

let add_exact_float buf f =
  let a = Float.abs f in
  if Float.is_integer f && a < 1e15 then begin
    (* [to_string]'s "%.1f": the integer's digits and ".0", signed for
       -0.0 too *)
    if Float.sign_bit f then Buffer.add_char buf '-';
    add_digits buf (int_of_float a);
    Buffer.add_string buf ".0"
  end
  else if a >= 1e-4 && a < 1e15 then begin
    let mark = Buffer.length buf in
    if f < 0.0 then Buffer.add_char buf '-';
    if not (add_short_decimal buf a || add_digits17 buf a) then begin
      Buffer.truncate buf mark;
      Buffer.add_string buf (exact_float_printf f)
    end
  end
  else Buffer.add_string buf (exact_float_printf f)

let add_exact_string buf = function
  | Null -> Buffer.add_string buf "NULL"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> add_int buf i
  | Float f -> add_exact_float buf f
  | String s -> Buffer.add_string buf s
  | Date d -> Buffer.add_string buf (string_of_date d)

let to_exact_string = function
  | Float f ->
    let buf = Buffer.create 24 in
    add_exact_float buf f;
    Buffer.contents buf
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
