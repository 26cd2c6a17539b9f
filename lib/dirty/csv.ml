exception Parse_error of { path : string; line : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { path; line; msg } ->
      Some (Printf.sprintf "Dirty.Csv.Parse_error: %s:%d: %s" path line msg)
    | _ -> None)

let parse_line ?(sep = ',') line =
  let n = String.length line in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let push () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  (* [i] scans the line; [quoted] tracks whether we are inside "..." *)
  let rec go i quoted =
    if i >= n then push ()
    else
      let c = line.[i] in
      if quoted then
        if c = '"' then
          if i + 1 < n && line.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            go (i + 2) true
          end
          else go (i + 1) false
        else begin
          Buffer.add_char buf c;
          go (i + 1) true
        end
      else if c = '"' && Buffer.length buf = 0 then go (i + 1) true
      else if c = sep then begin
        push ();
        go (i + 1) false
      end
      else begin
        Buffer.add_char buf c;
        go (i + 1) false
      end
  in
  go 0 false;
  List.rev !fields

let needs_quoting sep s =
  String.exists (fun c -> c = sep || c = '"' || c = '\n' || c = '\r') s

let render_field sep s =
  if not (needs_quoting sep s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let render_line ?(sep = ',') fields =
  match fields with
  (* a row whose single field is the empty string must not render as a
     blank line (blank lines are skipped on read): quote it *)
  | [ "" ] -> "\"\""
  | _ -> String.concat (String.make 1 sep) (List.map (render_field sep) fields)

(* Quote-aware parse of a whole document: rows are split on newlines
   {e outside} quotes, so fields containing '\n' (which {!render_field}
   legitimately emits quoted) round-trip.  Blank lines are skipped;
   CRLF and lone-CR row terminators are tolerated; an unterminated
   quote at end of input keeps the text read so far.  Each row is
   tagged with the 1-based physical line it starts on, so downstream
   errors can point at the offending line of the file. *)
let parse_rows_loc ?(sep = ',') s =
  let n = String.length s in
  let rows = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  (* [seen] distinguishes a blank line from a row holding one empty
     field written as "" *)
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

let parse_rows ?sep s = List.map snd (parse_rows_loc ?sep s)

(* whole-file reads go through the fault-injection shim so the chaos
   harness can exercise short reads and crashes on the load path too *)
let read_file ?sep path = parse_rows ?sep (Fault.Io.read_file path)

(* Majority-vote type inference for a parsed column. *)
let infer_type values =
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
    (* A column mixing ints and floats is a float column. *)
    if
      !best = Value.TInt
      && Hashtbl.mem counts Value.TFloat
    then Value.TFloat
    else if Hashtbl.length counts > 1 && !best <> Value.TFloat then Value.TString
    else !best
  end

let relation_of_located ?(path = "<csv>") ?(header = true) rows =
  match rows with
  | [] -> Relation.create (Schema.make []) []
  | (_, first) :: rest ->
    let names, data =
      if header then (first, rest)
      else (List.mapi (fun i _ -> Printf.sprintf "c%d" i) first, rows)
    in
    let arity = List.length names in
    let parsed =
      List.map
        (fun (line, row) ->
          if List.length row <> arity then
            raise
              (Parse_error
                 {
                   path;
                   line;
                   msg =
                     Printf.sprintf "row has %d fields, expected %d"
                       (List.length row) arity;
                 });
          List.map Value.parse row)
        data
    in
    let columns =
      List.mapi (fun j _ -> List.map (fun row -> List.nth row j) parsed) names
    in
    let types = List.map infer_type columns in
    let schema = Schema.make (List.combine names types) in
    Relation.create schema (List.map Array.of_list parsed)

let relation_of_rows ?path ?header rows =
  relation_of_located ?path ?header
    (List.mapi (fun i row -> (i + 1, row)) rows)

let relation_of_string ?path ?sep ?header s =
  relation_of_located ?path ?header (parse_rows_loc ?sep s)

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
