(** CRC-32 (IEEE) checksums over strings.

    The store's integrity primitive: cheap, streamable, and strong
    enough against the failure modes persistence actually sees (torn
    writes, truncation, bit rot).  Not a cryptographic hash. *)

val string : string -> int
(** Checksum of a whole string. *)

val update : int -> string -> int
(** [update crc s] extends a running checksum, so a file can be hashed
    chunk by chunk: [string (a ^ b) = update (string a) b].  Only the
    low 32 bits of [crc] are read. *)

val to_hex : int -> string
(** Lower-case 8-digit hex rendering, the journal's on-disk form. *)

val of_hex : string -> int option
(** Inverse of {!to_hex}; [None] on malformed input. *)
