(** Minimal CSV reader/writer used by the CLI and the examples.

    Supports RFC-4180-style quoting: fields containing the separator,
    a double quote, or a newline are quoted with ["..."] and embedded
    quotes are doubled. *)

exception Parse_error of { path : string; line : int; msg : string }
(** A structurally invalid document: [path] and the 1-based physical
    [line] locate the offending row ([path] is ["<csv>"] when the
    input did not come from a file). *)

val parse_line : ?sep:char -> string -> string list
(** Parse a single physical line (no embedded newlines): the fields of
    {!parse_rows}' one row, [[""]] for the empty line. *)

val parse_rows : ?sep:char -> string -> string list list
(** Parse a whole CSV document.  Quoting is honoured {e across} line
    boundaries, so fields containing newlines round-trip; blank lines
    (outside quotes) are skipped; CRLF and lone-CR terminators are
    tolerated. *)

val render_line : ?sep:char -> string list -> string
(** Inverse of {!parse_line}/{!parse_rows} row rendering.  A row whose
    single field is the empty string renders as [""] (quoted) so it is
    not mistaken for a blank line on read. *)

val add_exact_row : Buffer.t -> Value.t array -> unit
(** Appends [render_line (List.map Value.to_exact_string row)] (no line
    terminator) without building the fields or the line: the store's
    table-file form of a row. *)

val read_file : ?sep:char -> string -> string list list
(** Reads go through {!Fault.Io}, so fault-injection schedules cover
    the load path. *)

val relation_of_rows :
  ?path:string -> ?header:bool -> string list list -> Relation.t
(** Build a relation from raw CSV rows.  When [header] (default true)
    the first row gives attribute names; otherwise names are
    [c0, c1, ...].  Column types are inferred by {!Value.parse} on the
    data (majority vote; mixed columns degrade to VARCHAR, storing the
    parsed values unchanged).
    @raise Parse_error on a row whose arity differs from the header's
    (located by row index when the physical line is unknown). *)

val relation_of_string :
  ?path:string -> ?sep:char -> ?header:bool -> string -> Relation.t
(** {!parse_rows} + {!relation_of_rows} with physical line numbers in
    errors. *)

val load_file : ?sep:char -> ?header:bool -> string -> Relation.t
(** @raise Parse_error with the file's path and physical line number
    on malformed rows. *)

val write_file : ?sep:char -> ?header:bool -> string -> Relation.t -> unit
