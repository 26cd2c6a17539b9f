exception Parse_error of { path : string; line : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { path; line; msg } ->
      Some (Printf.sprintf "Dirty.Csv.Parse_error: %s:%d: %s" path line msg)
    | _ -> None)

(* ---- the scanner ----

   One pass over a document, the only CSV parser here.  Rows are split
   on newlines {e outside} quotes, so fields containing '\n' (which
   {!render_field} legitimately emits quoted) round-trip.  Blank lines
   are skipped; CRLF and lone-CR row terminators are tolerated; an
   unterminated quote at end of input keeps the text read so far.

   A field that does not start with '"' is raw: its bytes up to the
   next separator or line end, handed over as a slice of the document.
   A quoted field is unescaped into a buffer ("" is one quote); after
   its closing quote, bytes up to the separator are appended as they
   are, and a '"' there reopens quoting only while the field is still
   empty.  [field str pos len] receives each field as the bytes
   [str.[pos] .. str.[pos + len - 1]]; [row line] ends each row, [line]
   being the 1-based physical line the row starts on. *)
let scan ~sep s ~field ~row =
  let n = String.length s in
  let buf = Buffer.create 32 in
  let line = ref 1 in
  (* the field starting at [i]; returns the index of what ends it: a
     separator, a line end, or [n] *)
  let scan_field i =
    if i < n && s.[i] = '"' then begin
      Buffer.clear buf;
      let j = ref (i + 1) and quoted = ref true and stop = ref (-1) in
      while !stop < 0 do
        if !j >= n then stop := n
        else begin
          let c = s.[!j] in
          if !quoted then
            if c = '"' then
              if !j + 1 < n && s.[!j + 1] = '"' then begin
                Buffer.add_char buf '"';
                j := !j + 2
              end
              else begin
                quoted := false;
                incr j
              end
            else begin
              if c = '\n' then incr line;
              Buffer.add_char buf c;
              incr j
            end
          else if c = '"' && Buffer.length buf = 0 then begin
            quoted := true;
            incr j
          end
          else if c = sep || c = '\n' || c = '\r' then stop := !j
          else begin
            Buffer.add_char buf c;
            incr j
          end
        end
      done;
      let str = Buffer.contents buf in
      field str 0 (String.length str);
      !stop
    end
    else begin
      let j = ref i in
      while !j < n && s.[!j] <> sep && s.[!j] <> '\n' && s.[!j] <> '\r' do
        incr j
      done;
      field s i (!j - i);
      !j
    end
  in
  (* past the line end at [i]: CRLF is one *)
  let next_line i =
    incr line;
    if s.[i] = '\r' && i + 1 < n && s.[i + 1] = '\n' then i + 2 else i + 1
  in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '\n' || s.[!i] = '\r' then i := next_line !i
    else begin
      let row_line = !line in
      let in_row = ref true in
      while !in_row do
        let stop = scan_field !i in
        if stop >= n then begin
          i := n;
          in_row := false
        end
        else if s.[stop] = sep then i := stop + 1
        else begin
          i := next_line stop;
          in_row := false
        end
      done;
      row row_line
    end
  done

let slice str pos len =
  if pos = 0 && len = String.length str then str else String.sub str pos len

let parse_rows ?(sep = ',') s =
  let rows = ref [] and fields = ref [] in
  scan ~sep s
    ~field:(fun str pos len -> fields := slice str pos len :: !fields)
    ~row:(fun _ ->
      rows := List.rev !fields :: !rows;
      fields := []);
  List.rev !rows

let parse_line ?sep line =
  match parse_rows ?sep line with [] -> [ "" ] | fields :: _ -> fields

let needs_quoting sep s =
  String.exists (fun c -> c = sep || c = '"' || c = '\n' || c = '\r') s

(* a field as [render_line] writes it, appended to [buf] *)
let add_rendered_field sep buf s =
  if not (needs_quoting sep s) then Buffer.add_string buf s
  else begin
    Buffer.add_char buf '"';
    String.iter
      (fun c -> if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  end

let render_field sep s =
  if not (needs_quoting sep s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    add_rendered_field sep buf s;
    Buffer.contents buf
  end

let render_line ?(sep = ',') fields =
  match fields with
  (* a row whose single field is the empty string must not render as a
     blank line (blank lines are skipped on read): quote it *)
  | [ "" ] -> "\"\""
  | _ -> String.concat (String.make 1 sep) (List.map (render_field sep) fields)

let add_exact_row buf row =
  match row with
  | [| Value.String "" |] -> Buffer.add_string buf "\"\"" (* as [render_line] *)
  | _ ->
    Array.iteri
      (fun j v ->
        if j > 0 then Buffer.add_char buf ',';
        match v with
        (* the text of any other value is letters, digits, '.', '-'
           and '+', which never need quoting *)
        | Value.String s -> add_rendered_field ',' buf s
        | v -> Value.add_exact_string buf v)
      row

(* whole-file reads go through the fault-injection shim so the chaos
   harness can exercise short reads and crashes on the load path too *)
let read_file ?sep path = parse_rows ?sep (Fault.Io.read_file path)

(* ---- decoding into a relation ----

   Each field is decoded once, by {!Value.parse_sub}, straight into its
   row's cell array, and its type tag is tallied for its column as it
   goes.  The first row is kept as strings: the header's names or,
   without a header, the first data row, whose length fixes the arity. *)

(* tally slots, in the order that breaks ties of the type vote *)
let vote_order = [| Value.TFloat; TString; TDate; TBool; TInt |]
let n_tags = Array.length vote_order
let float_slot = 0

let tag (v : Value.t) =
  match v with
  | Null -> -1
  | Float _ -> 0
  | String _ -> 1
  | Date _ -> 2
  | Bool _ -> 3
  | Int _ -> 4

(* The column's type by majority vote over its non-null cells; a tie
   goes to the first in [vote_order].  A column mixing ints and floats
   is a float column; any other mix is VARCHAR unless FLOAT wins. *)
let infer_type tally j =
  let count k = tally.((j * n_tags) + k) in
  let best = ref (-1) and present = ref 0 in
  for k = 0 to n_tags - 1 do
    if count k > 0 then begin
      incr present;
      if !best < 0 || count k > count !best then best := k
    end
  done;
  if !best < 0 then Value.TString
  else
    match vote_order.(!best) with
    | TInt when count float_slot > 0 -> Value.TFloat
    | ty when !present > 1 && ty <> TFloat -> Value.TString
    | ty -> ty

type builder = {
  path : string;
  header : bool;
  mutable first : string list;  (** the first row, reversed *)
  mutable arity : int;  (** -1 until the first row ends *)
  mutable names : string list;
  mutable cells : Value.t array;  (** the row being decoded *)
  mutable col : int;  (** fields seen in that row *)
  mutable rows : Value.t array array;
  mutable n_rows : int;
  mutable tally : int array;  (** [n_tags] counters per column *)
}

let builder ~path ~header =
  {
    path;
    header;
    first = [];
    arity = -1;
    names = [];
    cells = [||];
    col = 0;
    rows = Array.make 64 [||];
    n_rows = 0;
    tally = [||];
  }

let add_field b str pos len =
  if b.arity < 0 then b.first <- slice str pos len :: b.first
  else begin
    if b.col < b.arity then begin
      let v = Value.parse_sub str pos len in
      b.cells.(b.col) <- v;
      let t = tag v in
      if t >= 0 then begin
        let k = (b.col * n_tags) + t in
        b.tally.(k) <- b.tally.(k) + 1
      end
    end;
    b.col <- b.col + 1
  end

let push_row b line =
  if b.col <> b.arity then
    raise
      (Parse_error
         {
           path = b.path;
           line;
           msg = Printf.sprintf "row has %d fields, expected %d" b.col b.arity;
         });
  if b.n_rows = Array.length b.rows then begin
    let rows = Array.make (2 * b.n_rows) [||] in
    Array.blit b.rows 0 rows 0 b.n_rows;
    b.rows <- rows
  end;
  b.rows.(b.n_rows) <- b.cells;
  b.n_rows <- b.n_rows + 1;
  b.cells <- Array.make b.arity Value.Null;
  b.col <- 0

let end_row b line =
  if b.arity >= 0 then push_row b line
  else begin
    let first = List.rev b.first in
    b.arity <- List.length first;
    b.tally <- Array.make (n_tags * b.arity) 0;
    b.cells <- Array.make b.arity Value.Null;
    if b.header then b.names <- first
    else begin
      b.names <- List.mapi (fun i _ -> Printf.sprintf "c%d" i) first;
      List.iter (fun f -> add_field b f 0 (String.length f)) first;
      push_row b line
    end
  end

let finish b =
  if b.arity < 0 then Relation.create (Schema.make []) []
  else
    let types = List.init b.arity (infer_type b.tally) in
    Relation.of_array
      (Schema.make (List.combine b.names types))
      (Array.sub b.rows 0 b.n_rows)

let relation_of_rows ?(path = "<csv>") ?(header = true) rows =
  let b = builder ~path ~header in
  List.iteri
    (fun i row ->
      List.iter (fun f -> add_field b f 0 (String.length f)) row;
      end_row b (i + 1))
    rows;
  finish b

let relation_of_string ?(path = "<csv>") ?(sep = ',') ?(header = true) s =
  let b = builder ~path ~header in
  scan ~sep s ~field:(add_field b) ~row:(end_row b);
  finish b

let load_file ?sep ?header path =
  relation_of_string ~path ?sep ?header (Fault.Io.read_file path)

let write_channel ?sep ?(header = true) oc rel =
  if header then begin
    output_string oc (render_line ?sep (Schema.names (Relation.schema rel)));
    output_char oc '\n'
  end;
  Relation.iter
    (fun row ->
      let fields = Array.to_list (Array.map Value.to_string row) in
      output_string oc (render_line ?sep fields);
      output_char oc '\n')
    rel

let write_file ?sep ?header path rel =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> write_channel ?sep ?header oc rel)
