(* Exporters: pretty span trees, JSON-lines traces, and a
   Prometheus-style text dump of the metrics registry. *)

(* ---- small hand-rolled JSON emitters (no external dependency) ---- *)

(* [s] escaped for a JSON string literal, appended to [buf]; runs of
   bytes that need no escape go in with one blit *)
let add_json_escaped buf s =
  let flushed = ref 0 in
  String.iteri
    (fun i c ->
      if c = '"' || c = '\\' || Char.code c < 0x20 then begin
        Buffer.add_substring buf s !flushed (i - !flushed);
        flushed := i + 1;
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      end)
    s;
  Buffer.add_substring buf s !flushed (String.length s - !flushed)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_json_escaped buf s;
  Buffer.contents buf

let add_json_string buf s =
  Buffer.add_char buf '"';
  add_json_escaped buf s;
  Buffer.add_char buf '"'

let json_string s = "\"" ^ json_escape s ^ "\""

(* the conversion [Printf.sprintf "%.9g"] ends in, without
   interpreting the format string on every call *)
external format_float : string -> float -> string = "caml_format_float"

(* JSON numbers may not be nan/inf; clamp to null *)
let json_float f = if Float.is_finite f then format_float "%.9g" f else "null"

(* ---- span trees ---- *)

let pp_words ppf w =
  if w >= 1e6 then Format.fprintf ppf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Format.fprintf ppf "%.1fkw" (w /. 1e3)
  else Format.fprintf ppf "%.0fw" w

let rec pp_span_indent ppf indent (s : Span.t) =
  Format.fprintf ppf "%s%s  %.3fms  minor=%a major=%a" (String.make indent ' ')
    s.name (s.elapsed *. 1000.0) pp_words s.minor_words pp_words s.major_words;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "  %s=%s" k v)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) s.attrs);
  Format.fprintf ppf "@\n";
  List.iter (pp_span_indent ppf (indent + 2)) s.children

let pp_span ppf s = pp_span_indent ppf 0 s

let span_to_string s = Format.asprintf "%a" pp_span s

(* one JSON object per span, children nested *)
let rec span_json buf (s : Span.t) =
  Buffer.add_string buf "{\"name\":";
  Buffer.add_string buf (json_string s.name);
  Buffer.add_string buf (Printf.sprintf ",\"start\":%s" (json_float s.start));
  Buffer.add_string buf
    (Printf.sprintf ",\"elapsed_ms\":%s" (json_float (s.elapsed *. 1000.0)));
  Buffer.add_string buf
    (Printf.sprintf ",\"minor_words\":%s" (json_float s.minor_words));
  Buffer.add_string buf
    (Printf.sprintf ",\"major_words\":%s" (json_float s.major_words));
  if s.attrs <> [] then begin
    Buffer.add_string buf ",\"attrs\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (json_string k);
        Buffer.add_char buf ':';
        Buffer.add_string buf (json_string v))
      (List.sort (fun (a, _) (b, _) -> String.compare a b) s.attrs);
    Buffer.add_char buf '}'
  end;
  if s.children <> [] then begin
    Buffer.add_string buf ",\"children\":[";
    List.iteri
      (fun i child ->
        if i > 0 then Buffer.add_char buf ',';
        span_json buf child)
      s.children;
    Buffer.add_char buf ']'
  end;
  Buffer.add_char buf '}'

let span_to_json s =
  let buf = Buffer.create 256 in
  span_json buf s;
  Buffer.contents buf

(* Append each completed root as one JSON line.  Opens lazily on the
   first span and registers the close at exit, so subscribing is cheap
   when nothing ever traces.  A mutex serializes writers: spans can
   complete on several domains at once, and a torn JSON line would
   corrupt the whole trace file. *)
let trace_writer path =
  let lock = Mutex.create () in
  let channel = ref None in
  let get () =
    match !channel with
    | Some oc -> oc
    | None ->
      let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
      channel := Some oc;
      at_exit (fun () -> close_out_noerr oc);
      oc
  in
  fun span ->
    let line = span_to_json span in
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        let oc = get () in
        output_string oc line;
        output_char oc '\n';
        flush oc)

(* ---- Prometheus text exposition format ----

   Conformant with the classic text format (the dialect a
   promtool-style checker accepts): metric names restricted to
   [a-zA-Z_:][a-zA-Z0-9_:]*, counter families carry the [_total]
   suffix, HELP text escapes backslash and newline, label values
   escape backslash / newline / double quote, sample values render
   as Prometheus floats ([NaN], [+Inf], [-Inf] — never JSON null),
   and every histogram family emits cumulative [_bucket] series
   ending in [le="+Inf"] plus [_sum] and [_count]. *)

let prometheus_name name =
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name
  in
  "conquer_" ^ mapped

(* Prometheus floats are not JSON floats: non-finite values have
   spellings instead of being unrepresentable *)
let prometheus_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" f

(* HELP lines run to end-of-line: backslash and newline would change
   the parse, so they are escaped (the only escapes the format has) *)
let prometheus_escape_help s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* label values live inside double quotes: quote joins the escape set *)
let prometheus_escape_label s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pp_prometheus ppf () =
  List.iter
    (fun (s : Metrics.sample) ->
      let base = prometheus_name s.name in
      let family, kind =
        match s.data with
        (* counters expose the family as <name>_total, the convention
           format checkers enforce *)
        | Metrics.Counter_value _ ->
          ( (if String.ends_with ~suffix:"_total" base then base
             else base ^ "_total"),
            "counter" )
        | Metrics.Gauge_value _ -> (base, "gauge")
        | Metrics.Histogram_value _ -> (base, "histogram")
      in
      if s.help <> "" then
        Format.fprintf ppf "# HELP %s %s@\n" family
          (prometheus_escape_help s.help);
      Format.fprintf ppf "# TYPE %s %s@\n" family kind;
      match s.data with
      | Metrics.Counter_value n -> Format.fprintf ppf "%s %d@\n" family n
      | Metrics.Gauge_value v ->
        Format.fprintf ppf "%s %s@\n" family (prometheus_float v)
      | Metrics.Histogram_value h ->
        Array.iteri
          (fun i bound ->
            Format.fprintf ppf "%s_bucket{le=\"%s\"} %d@\n" family
              (prometheus_float bound) h.hs_counts.(i))
          h.hs_bounds;
        Format.fprintf ppf "%s_bucket{le=\"+Inf\"} %d@\n" family
          h.hs_counts.(Array.length h.hs_counts - 1);
        Format.fprintf ppf "%s_sum %s@\n" family (prometheus_float h.hs_sum);
        Format.fprintf ppf "%s_count %d@\n" family h.hs_total)
    (Metrics.snapshot ())

let prometheus_string () = Format.asprintf "%a" pp_prometheus ()

let write_metrics path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (prometheus_string ()))

(* metrics snapshot as a JSON object: counters and gauges as numbers,
   histograms as {count, sum} — used by the bench harness *)
let metrics_json () =
  let buf = Buffer.create 512 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (s : Metrics.sample) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (json_string s.name);
      Buffer.add_char buf ':';
      match s.data with
      | Metrics.Counter_value n -> Buffer.add_string buf (string_of_int n)
      | Metrics.Gauge_value v -> Buffer.add_string buf (json_float v)
      | Metrics.Histogram_value h ->
        Buffer.add_string buf
          (Printf.sprintf "{\"count\":%d,\"sum\":%s}" h.hs_total
             (json_float h.hs_sum)))
    (Metrics.snapshot ());
  Buffer.add_char buf '}';
  Buffer.contents buf
