(** A minimal, dependency-free HTTP/1.1 layer over [Unix] sockets.

    One request per connection ([Connection: close] on every
    response): the daemon's unit of admission control is the request,
    and a closed connection is an unambiguous client-disconnect signal
    for the cancellation reaper.  Reads are bounded in both size
    (header and body limits) and time ([SO_RCVTIMEO]), so a slow or
    hostile client can never pin a worker. *)

type request = {
  meth : string;  (** uppercased: GET, POST, ... *)
  path : string;  (** decoded path component, e.g. ["/query"] *)
  query : (string * string) list;  (** decoded query-string pairs *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

exception Bad_request of string
(** Malformed request line, header, or chunked framing we don't
    speak; answer 400. *)

exception Too_large of string
(** Header block over 8 KiB or body over 1 MiB; answer 413. *)

exception Timeout
(** The socket read timed out before a full request arrived. *)

exception Disconnected
(** The peer closed (or reset) the connection. *)

val read_request : ?read_timeout:float -> Unix.file_descr -> request
(** Read and parse one request.  [read_timeout] (default 5s) bounds
    the whole read via [SO_RCVTIMEO].
    @raise Bad_request, Too_large, Timeout or Disconnected. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val param : request -> string -> string option
(** Query-string parameter lookup. *)

val write_response :
  Unix.file_descr ->
  status:int ->
  ?headers:(string * string) list ->
  ?content_type:string ->
  body:string list ->
  unit ->
  unit
(** Write a complete response with [Content-Length] and
    [Connection: close].  The body is the concatenation of the
    fragments; head and body are assembled into one string and sent
    with one write loop.  @raise Disconnected on EPIPE/ECONNRESET. *)

(** {1 A small blocking client, for tests and the load-generator
    bench} *)

type response = {
  status : int;
  r_headers : (string * string) list;
  r_body : string;
}

val request :
  host:string ->
  port:int ->
  ?meth:string ->
  ?headers:(string * string) list ->
  ?body:string ->
  ?timeout:float ->
  string ->
  response
(** [request ~host ~port target] performs one HTTP exchange (default
    [meth] GET, or POST when [body] is given) and reads the response
    to EOF.  [headers] are sent verbatim after the built-in ones
    (e.g. [("x-trace-id", id)]).  [timeout] (default 30s) bounds both
    connect and read.
    @raise Unix.Unix_error on connection failure, Disconnected if the
    server closes mid-response. *)
