(* Minimal HTTP/1.1 over Unix sockets: exactly what the query daemon
   needs and nothing else.  One request per connection, Content-Length
   framing only (no chunked uploads), bounded header/body sizes, and a
   receive timeout on every read so a slowloris client cannot pin a
   worker domain.  The same file also carries the tiny blocking client
   the tests and the load-generator bench drive the daemon with. *)

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

exception Bad_request of string
exception Too_large of string
exception Timeout
exception Disconnected

let max_header_bytes = 8 * 1024
let max_body_bytes = 1024 * 1024

(* ---- small lexical helpers ---- *)

let lowercase = String.lowercase_ascii

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* %XX and '+' decoding for paths and query strings; malformed escapes
   pass through verbatim rather than failing the whole request *)
let percent_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char buf ' '
    | '%' when !i + 2 < n -> (
      match (hex_value s.[!i + 1], hex_value s.[!i + 2]) with
      | Some hi, Some lo ->
        Buffer.add_char buf (Char.chr ((hi * 16) + lo));
        i := !i + 2
      | _ -> Buffer.add_char buf '%')
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let parse_query_string qs =
  if qs = "" then []
  else
    String.split_on_char '&' qs
    |> List.filter_map (fun pair ->
           if pair = "" then None
           else
             match String.index_opt pair '=' with
             | None -> Some (percent_decode pair, "")
             | Some i ->
               Some
                 ( percent_decode (String.sub pair 0 i),
                   percent_decode
                     (String.sub pair (i + 1) (String.length pair - i - 1)) ))

let split_target target =
  match String.index_opt target '?' with
  | None -> (percent_decode target, [])
  | Some i ->
    ( percent_decode (String.sub target 0 i),
      parse_query_string (String.sub target (i + 1) (String.length target - i - 1))
    )

(* ---- socket reads ---- *)

let set_read_timeout fd seconds =
  try Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds
  with Unix.Unix_error _ -> ()

(* one recv; maps the failure modes onto the typed exceptions *)
let recv_chunk fd bytes =
  match Unix.read fd bytes 0 (Bytes.length bytes) with
  | 0 -> raise Disconnected
  | n -> n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> raise Timeout
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
    raise Disconnected
  | exception Unix.Unix_error (EINTR, _, _) -> 0

let find_header_end s len =
  (* index just past "\r\n\r\n", scanning only the valid prefix *)
  let rec go i =
    if i + 3 >= len then None
    else if
      Bytes.get s i = '\r'
      && Bytes.get s (i + 1) = '\n'
      && Bytes.get s (i + 2) = '\r'
      && Bytes.get s (i + 3) = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go 0

let parse_headers lines =
  List.map
    (fun line ->
      match String.index_opt line ':' with
      | None -> raise (Bad_request ("malformed header: " ^ line))
      | Some i ->
        ( lowercase (String.trim (String.sub line 0 i)),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) ))
    lines

let header req name =
  List.assoc_opt (lowercase name) req.headers

let param req name = List.assoc_opt name req.query

let read_request ?(read_timeout = 5.0) fd =
  set_read_timeout fd read_timeout;
  let buf = Bytes.create max_header_bytes in
  let filled = ref 0 in
  let head_end = ref None in
  while !head_end = None do
    if !filled >= max_header_bytes then
      raise (Too_large "header block over 8KiB");
    let chunk = Bytes.create (max_header_bytes - !filled) in
    let n = recv_chunk fd chunk in
    Bytes.blit chunk 0 buf !filled n;
    filled := !filled + n;
    head_end := find_header_end buf !filled
  done;
  let head_end = Option.get !head_end in
  let head = Bytes.sub_string buf 0 (head_end - 4) in
  let lines = String.split_on_char '\n' head |> List.map (fun l ->
      match String.length l with
      | 0 -> l
      | n when l.[n - 1] = '\r' -> String.sub l 0 (n - 1)
      | _ -> l)
  in
  let request_line, header_lines =
    match lines with
    | [] -> raise (Bad_request "empty request")
    | rl :: hs -> (rl, List.filter (fun l -> l <> "") hs)
  in
  let meth, target =
    match String.split_on_char ' ' request_line with
    | [ meth; target; version ]
      when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
      (String.uppercase_ascii meth, target)
    | _ -> raise (Bad_request ("malformed request line: " ^ request_line))
  in
  let headers = parse_headers header_lines in
  let content_length =
    match List.assoc_opt "content-length" headers with
    | None -> 0
    | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 0 -> n
      | _ -> raise (Bad_request ("bad content-length: " ^ v)))
  in
  if List.assoc_opt "transfer-encoding" headers <> None then
    raise (Bad_request "chunked requests are not supported");
  if content_length > max_body_bytes then
    raise (Too_large "body over 1MiB");
  let body = Buffer.create content_length in
  Buffer.add_subbytes body buf head_end (!filled - head_end);
  while Buffer.length body < content_length do
    let chunk = Bytes.create (content_length - Buffer.length body) in
    let n = recv_chunk fd chunk in
    Buffer.add_subbytes body chunk 0 n
  done;
  let body = Buffer.contents body in
  let body =
    if String.length body > content_length then
      String.sub body 0 content_length
    else body
  in
  let path, query = split_target target in
  { meth; path; query; headers; body }

(* ---- responses ---- *)

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | c -> if c >= 200 && c < 300 then "OK" else "Error"

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    match Unix.write_substring fd s !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
      raise Disconnected
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

(* the head and every body fragment go into one exact-size string
   ([String.concat] measures first), so a large body is copied once
   and the response leaves in a single write *)
let write_response fd ~status ?(headers = []) ?(content_type = "application/json")
    ~body () =
  let body_len = List.fold_left (fun n s -> n + String.length s) 0 body in
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\ncontent-type: %s\r\ncontent-length: %d\r\nconnection: close\r\n%s\r\n"
      status (status_reason status) content_type body_len
      (String.concat ""
         (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers))
  in
  write_all fd (String.concat "" (head :: body))

(* ---- client ---- *)

type response = {
  status : int;
  r_headers : (string * string) list;
  r_body : string;
}

let read_to_eof fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
      Buffer.contents buf
  in
  go ()

let parse_response raw =
  match String.index_opt raw '\n' with
  | None -> raise Disconnected
  | Some _ -> (
    let head, body =
      let rec find i =
        if i + 3 >= String.length raw then raise Disconnected
        else if String.sub raw i 4 = "\r\n\r\n" then
          ( String.sub raw 0 i,
            String.sub raw (i + 4) (String.length raw - i - 4) )
        else find (i + 1)
      in
      find 0
    in
    match String.split_on_char '\n' head with
    | [] -> raise Disconnected
    | status_line :: header_lines ->
      let status =
        match String.split_on_char ' ' (String.trim status_line) with
        | _ :: code :: _ -> (
          match int_of_string_opt code with
          | Some c -> c
          | None -> raise Disconnected)
        | _ -> raise Disconnected
      in
      let r_headers =
        parse_headers
          (List.filter_map
             (fun l ->
               let l = String.trim l in
               if l = "" then None else Some l)
             header_lines)
      in
      { status; r_headers; r_body = body })

let request ~host ~port ?meth ?(headers = []) ?body ?(timeout = 30.0) target =
  let meth =
    match (meth, body) with
    | Some m, _ -> m
    | None, Some _ -> "POST"
    | None, None -> "GET"
  in
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      set_read_timeout fd timeout;
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
       with Unix.Unix_error _ -> ());
      Unix.connect fd addr;
      let body_s = Option.value body ~default:"" in
      let extra =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
      in
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nhost: %s:%d\r\ncontent-length: %d\r\nconnection: close\r\n%s\r\n%s"
          meth target host port (String.length body_s) extra body_s
      in
      write_all fd req;
      parse_response (read_to_eof fd))
