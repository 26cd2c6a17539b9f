(** Syscall-level I/O with deterministic fault injection.

    Persistence code routes its file operations through this shim.  In
    production every call is pass-through (one atomic flag test of
    overhead).  Under test, a schedule of faults can be armed against
    the numbered operation stream: fail the nth write, deliver a short
    read, tear a write at byte [k], run out of disk space, or {e crash}
    — abort at an exact syscall boundary, after which all further
    state-changing operations are suppressed until {!reset}, exactly
    like a killed process.

    The shim is write-through (no userspace buffer), so the crash
    model is precise: bytes written before the crash point are on
    disk, nothing after is. *)

type fault =
  | Fail_write  (** the write raises a transient I/O error *)
  | Enospc  (** the write raises a permanent out-of-space error *)
  | Torn_write of int
      (** only the first [k] bytes of the payload reach the file, then
          a transient error is raised *)
  | Short_read of int
      (** the read silently returns only the first [k] bytes *)
  | Crash
      (** simulated process death at this syscall boundary: the
          operation does not happen and {!Crashed} is raised *)

type op =
  | Open_out
  | Write
  | Fsync
  | Close_out
  | Rename
  | Open_in
  | Read
  | Remove
  | Mkdir

val op_name : op -> string

exception Crashed
(** The armed [Crash] fault fired (or an operation ran after it). *)

exception
  Io_error of { op : op; path : string; msg : string; transient : bool }
(** An injected I/O failure.  [transient] failures are retried by
    {!Retry.with_retry}'s default classifier; permanent ones are not. *)

(** {1 Schedule control (test harnesses)} *)

val reset : ?record:bool -> unit -> unit
(** Clear the schedule, the counters, the crashed flag and the trace.
    With [record] (default false), subsequent operations are numbered
    and traced — the mode chaos harnesses use to learn how many fault
    points an operation has. *)

val arm : (int * fault) list -> unit
(** Schedule faults at absolute operation indices (counted from the
    last {!reset}). *)

val arm_nth_write : int -> fault -> unit
(** Schedule a fault at the nth [Write] operation (0-based). *)

val ops : unit -> int
(** Operations performed since the last {!reset} (only counted while
    the shim is active — after [reset ~record:true] or [arm]). *)

val crashed : unit -> bool
val injected : unit -> int
(** Faults triggered since the last {!reset}. *)

val trace : unit -> (int * op * string) list
(** The recorded operation stream (index, operation, path), oldest
    first.  Empty unless recording. *)

val random_schedule : seed:int -> ops:int -> (int * fault) list
(** A reproducible pseudo-random schedule of 1–3 faults over an
    operation stream of the given length; equal seeds give equal
    schedules.  The CI chaos job derives its schedule from
    [CONQUER_FAULT_SEED]. *)

val seed_from_env : unit -> int option
(** Parse [CONQUER_FAULT_SEED]. *)

(** {1 The I/O surface} *)

type writer

val open_out : string -> writer
(** Create/truncate a file for writing ([Open_out] fault point). *)

val write : writer -> string -> unit
(** Append the whole string ([Write] fault point; write-through). *)

val fsync : writer -> unit
(** Force file contents to stable storage ([Fsync] fault point). *)

val close : writer -> unit
(** Close ([Close_out] fault point); idempotent. *)

val abort : writer -> unit
(** Exception-path close: closes the descriptor without checking the
    schedule, so it never masks the original failure. *)

val rename : string -> string -> unit
(** Atomic rename ([Rename] fault point). *)

val remove : string -> unit
(** Delete ([Remove] fault point; suppressed after a crash, so
    unwinding cleanup cannot repair the simulated disk). *)

val mkdir : string -> int -> unit

val fsync_dir : string -> unit
(** Sync a directory's entries after a rename ([Fsync] fault point);
    filesystems that reject directory fsync are tolerated. *)

val read_file : string -> string
(** Whole-file read ([Open_in] then [Read] fault points; a
    [Short_read] fault truncates the returned bytes). *)
