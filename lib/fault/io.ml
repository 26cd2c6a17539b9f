(* A syscall-level I/O shim with deterministic fault injection.

   All store persistence (and the CSV/.tbl readers) route their file
   operations through this module instead of the stdlib channels.  In
   production the shim is pass-through: every operation performs the
   real syscall, plus one atomic counter increment — negligible next
   to the I/O itself.

   For testing, a schedule of faults can be armed.  Operations are
   numbered from the last [reset]; when an operation's index (or its
   per-kind index, for write/read-targeted faults) matches an armed
   entry, the corresponding failure is simulated:

   - [Fail_write]   the write raises a transient I/O error (EIO-ish)
   - [Enospc]       the write raises a permanent out-of-space error
   - [Torn_write k] only the first [k] bytes of the payload reach the
                    file, then a transient error is raised
   - [Short_read k] the read silently returns only the first [k] bytes
                    (observed as data corruption, not as an error)
   - [Crash]        the process "dies" at this exact syscall boundary:
                    the operation does NOT happen, {!Crashed} is
                    raised, and every subsequent state-changing
                    operation is silently suppressed until [reset] —
                    cleanup handlers unwinding past the crash cannot
                    repair the disk, exactly like a real kill -9.

   The shim is write-through (no userspace buffering), so the simulated
   crash model is precise: everything written before the crash point is
   on disk, nothing after.  What it does not model is page-cache loss
   after a missing fsync — the [Torn_write] fault approximates that.

   The schedule, the counters, and the trace are process-global and
   mutex-guarded; the chaos harness is single-threaded, and production
   code only touches the fast path. *)

type fault =
  | Fail_write
  | Enospc
  | Torn_write of int
  | Short_read of int
  | Crash

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

let op_name = function
  | Open_out -> "open_out"
  | Write -> "write"
  | Fsync -> "fsync"
  | Close_out -> "close"
  | Rename -> "rename"
  | Open_in -> "open_in"
  | Read -> "read"
  | Remove -> "remove"
  | Mkdir -> "mkdir"

exception Crashed

exception
  Io_error of { op : op; path : string; msg : string; transient : bool }

let () =
  Printexc.register_printer (function
    | Crashed -> Some "Fault.Io.Crashed: simulated crash at syscall boundary"
    | Io_error { op; path; msg; transient } ->
      Some
        (Printf.sprintf "Fault.Io.Io_error: %s %s: %s (%s)" (op_name op) path
           msg
           (if transient then "transient" else "permanent"))
    | _ -> None)

let m_faults_injected =
  Telemetry.Metrics.counter "fault.io.faults_injected"
    ~help:"simulated I/O failures triggered by the armed schedule"

(* a fault is keyed either on the absolute operation index or on the
   index among write operations (the "nth write") *)
type trigger = At_op of int | At_write of int

type state = {
  lock : Mutex.t;
  mutable armed : (trigger * fault) list;
  mutable ops : int;
  mutable writes : int;
  mutable crashed : bool;
  mutable recording : bool;
  mutable trace : (int * op * string) list; (* reversed *)
  mutable injected : int;
}

let st =
  {
    lock = Mutex.create ();
    armed = [];
    ops = 0;
    writes = 0;
    crashed = false;
    recording = false;
    trace = [];
    injected = 0;
  }

(* true while any schedule/trace machinery is active; production stays
   on the fast path (plain counter bump, no lock) *)
let active = Atomic.make false

let with_lock f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

let reset ?(record = false) () =
  with_lock (fun () ->
      st.armed <- [];
      st.ops <- 0;
      st.writes <- 0;
      st.crashed <- false;
      st.recording <- record;
      st.trace <- [];
      st.injected <- 0;
      Atomic.set active record)

let arm schedule =
  with_lock (fun () ->
      st.armed <- st.armed @ List.map (fun (i, f) -> (At_op i, f)) schedule;
      Atomic.set active true)

let arm_nth_write n fault =
  with_lock (fun () ->
      st.armed <- st.armed @ [ (At_write n, fault) ];
      Atomic.set active true)

let ops () = with_lock (fun () -> st.ops)
let crashed () = with_lock (fun () -> st.crashed)
let injected () = with_lock (fun () -> st.injected)
let trace () = with_lock (fun () -> List.rev st.trace)

let trace_cap = 20_000

(* Number the operation, record it, and decide its fate.  Returns the
   fault the *caller* must apply ([Torn_write]/[Short_read]); raises
   for the error faults; marks the process dead for [Crash]. *)
let check opk path : fault option =
  if not (Atomic.get active) then None
  else
    let decision =
      with_lock (fun () ->
          if st.crashed then `After_crash
          else begin
            let n = st.ops in
            st.ops <- st.ops + 1;
            let write_index =
              match opk with
              | Write ->
                let w = st.writes in
                st.writes <- st.writes + 1;
                Some w
              | _ -> None
            in
            if st.recording && List.length st.trace < trace_cap then
              st.trace <- (n, opk, path) :: st.trace;
            let matches = function
              | At_op i -> i = n
              | At_write i -> write_index = Some i
            in
            match
              List.find_opt (fun (trig, _) -> matches trig) st.armed
            with
            | None -> `Pass
            | Some (_, fault) ->
              st.injected <- st.injected + 1;
              Telemetry.Metrics.inc m_faults_injected;
              if fault = Crash then st.crashed <- true;
              `Fault fault
          end)
    in
    match decision with
    | `Pass -> None
    | `After_crash -> raise Crashed
    | `Fault Crash -> raise Crashed
    | `Fault Fail_write ->
      raise
        (Io_error { op = opk; path; msg = "injected I/O error"; transient = true })
    | `Fault Enospc ->
      raise
        (Io_error
           { op = opk; path; msg = "no space left on device"; transient = false })
    | `Fault (Torn_write _ as f) | `Fault (Short_read _ as f) -> Some f

(* cleanup-path operations are suppressed (not failed) once crashed:
   finalizers unwinding past a simulated crash must neither repair the
   disk nor mask the crash with a second exception *)
let dead () = Atomic.get active && with_lock (fun () -> st.crashed)

(* ---- the I/O surface ---- *)

type writer = {
  mutable fd : Unix.file_descr option;
  w_path : string;
}

let open_out path =
  ignore (check Open_out path);
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  { fd = Some fd; w_path = path }

let write_all fd s pos len =
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write_substring fd s (pos + !written) (len - !written)
  done

let write w s =
  match w.fd with
  | None -> invalid_arg "Fault.Io.write: writer is closed"
  | Some fd -> (
    match check Write w.w_path with
    | None -> write_all fd s 0 (String.length s)
    | Some (Torn_write k) ->
      write_all fd s 0 (min k (String.length s));
      raise
        (Io_error
           { op = Write; path = w.w_path; msg = "torn write"; transient = true })
    | Some _ -> write_all fd s 0 (String.length s))

let fsync w =
  match w.fd with
  | None -> invalid_arg "Fault.Io.fsync: writer is closed"
  | Some fd ->
    ignore (check Fsync w.w_path);
    Unix.fsync fd

let close w =
  match w.fd with
  | None -> ()
  | Some fd ->
    w.fd <- None;
    if dead () then Unix.close fd
    else begin
      ignore (check Close_out w.w_path);
      Unix.close fd
    end

(* exception-path close: never a fault point, never masks the cause *)
let abort w =
  match w.fd with
  | None -> ()
  | Some fd ->
    w.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let rename src dst =
  ignore (check Rename (src ^ " -> " ^ dst));
  Sys.rename src dst

let remove path =
  if dead () then ()
  else begin
    ignore (check Remove path);
    Sys.remove path
  end

let mkdir path perm =
  ignore (check Mkdir path);
  Sys.mkdir path perm

(* Durability of a rename needs the parent directory's entry synced
   too; some filesystems reject fsync on a directory fd, which is as
   good as it gets — swallow that. *)
let fsync_dir path =
  ignore (check Fsync path);
  match Unix.openfile path [ O_RDONLY; O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let read_file path =
  ignore (check Open_in path);
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match check Read path with
  | Some (Short_read k) -> String.sub content 0 (min k (String.length content))
  | _ -> content

(* ---- seedable random schedules (CI chaos mode) ---- *)

let seed_from_env () =
  Option.bind (Sys.getenv_opt "CONQUER_FAULT_SEED") (fun s ->
      int_of_string_opt (String.trim s))

let random_schedule ~seed ~ops:n =
  let rng = Random.State.make [| seed; 0x10ad; n |] in
  if n <= 0 then []
  else begin
    let faults =
      [|
        (fun () -> Fail_write);
        (fun () -> Enospc);
        (fun () -> Torn_write (Random.State.int rng 64));
        (fun () -> Short_read (Random.State.int rng 64));
        (fun () -> Crash);
      |]
    in
    let k = 1 + Random.State.int rng 3 in
    List.init k (fun _ ->
        ( Random.State.int rng n,
          faults.(Random.State.int rng (Array.length faults)) () ))
  end
