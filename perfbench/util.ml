(* Process plumbing shared by the workloads: clocks, peak RSS, the
   run's temp directory, child processes, input generation, and the
   benchmark's own span recorder. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ms s = s *. 1000.0

(* VmHWM of a process, in MiB *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* index of the first occurrence of [sub] in [s] *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i j = j = m || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = if i + m > n then None else if at i 0 then Some i else go (i + 1) in
  go 0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dir_bytes dir =
  Array.fold_left
    (fun acc n -> acc + (Unix.stat (Filename.concat dir n)).Unix.st_size)
    0 (Sys.readdir dir)

(* ---- cleanup on every exit path ---- *)

let children : int list ref = ref []
let temp_dirs : string list ref = ref []

let forget_child pid = children := List.filter (( <> ) pid) !children

let cleanup () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := [];
  List.iter (fun d -> try rm_rf d with _ -> ()) !temp_dirs;
  temp_dirs := [];
  try Unix.rmdir "_perfbench_tmp" with Unix.Unix_error _ -> ()

let install_cleanup () =
  at_exit cleanup;
  let die signal =
    Sys.Signal_handle
      (fun _ ->
        cleanup ();
        exit (128 + signal))
  in
  Sys.set_signal Sys.sigterm (die 15);
  Sys.set_signal Sys.sigint (die 2);
  Sys.set_signal Sys.sighup (die 1)

(* Scratch space lives inside the checkout (under a directory dune
   ignores) and is removed when the run ends. *)
let fresh_temp_dir name =
  let dir =
    Filename.concat "_perfbench_tmp" (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  temp_dirs := dir :: !temp_dirs;
  dir

let spawn ?(stdout = Unix.stdout) argv =
  let pid = Unix.create_process argv.(0) argv Unix.stdin stdout Unix.stderr in
  children := pid :: !children;
  pid

let wait_exit pid =
  let _, status = Unix.waitpid [] pid in
  forget_child pid;
  status

(* Inputs come from a child process running [main.exe gen], so that
   the generator's memory never shows in the measured process's peak
   RSS. *)
let generate ~sf ~inconsistency ~seed dir =
  let pid =
    spawn ~stdout:Unix.stderr
      [|
        Sys.executable_name;
        "gen";
        dir;
        string_of_float sf;
        string_of_int inconsistency;
        string_of_int seed;
      |]
  in
  match wait_exit pid with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("input generation failed for " ^ dir)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The data generator keeps its default seed: at these sizes, which
   tuples a generator seed duplicates moves single queries by up to 3x
   (Q9's answer size), which would swamp the changes the benchmark has
   to see.  The run's seed draws each table's row order and every
   cluster's probabilities instead, so the answers the gates check
   differ from seed to seed while the amount of work stays put. *)
let gen_main dir sf inconsistency seed =
  let db = Tpch.Datagen.generate { Tpch.Datagen.default with sf; inconsistency } in
  let st = Random.State.make [| seed |] in
  let reseed (t : Dirty.Dirty_db.table) =
    let rows = Array.copy (Dirty.Relation.rows t.relation) in
    shuffle st rows;
    let t =
      Dirty.Dirty_db.make_table ~validate:false ~name:t.name ~id_attr:t.id_attr
        ~prob_attr:t.prob_attr
        (Dirty.Relation.of_array (Dirty.Relation.schema t.relation) rows)
    in
    let probs = Array.make (Array.length rows) 0.0 in
    Dirty.Cluster.iter
      (fun _ members ->
        let w = List.map (fun i -> (i, float_of_int (1 + Random.State.int st 16))) members in
        let total = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 w in
        List.iter (fun (i, x) -> probs.(i) <- x /. total) w)
      t.clustering;
    Dirty.Dirty_db.with_probabilities t probs
  in
  Dirty.Store.save dir
    (List.fold_left
       (fun acc t -> Dirty.Dirty_db.add_table acc (reseed t))
       Dirty.Dirty_db.empty (Dirty.Dirty_db.tables db))

(* A digest of a table as the store persists it.  The store writes
   each cell as [Value.to_string] text and reads it back with
   [Value.parse], which is lossy (floats keep 6 significant digits, an
   empty string reads as NULL), so cells are compared in the form a
   load yields: [to_string (parse (to_string v))]. *)
let table_digest (t : Dirty.Dirty_db.table) =
  let b = Buffer.create 65536 in
  Array.iter
    (fun row ->
      Array.iter
        (fun v ->
          let text = Dirty.Value.(to_string (parse (to_string v))) in
          Printf.bprintf b "%d:%s" (String.length text) text)
        row;
      Buffer.add_char b '\n')
    (Dirty.Relation.rows t.relation);
  Digest.to_hex (Digest.string (Buffer.contents b))

let db_digests db =
  List.map
    (fun (t : Dirty.Dirty_db.table) ->
      (t.name, Dirty.Relation.cardinality t.relation, table_digest t))
    (Dirty.Dirty_db.tables db)

(* ---- the benchmark's own spans ---- *)

(* Spans are recorded around calls into each layer, kept in memory,
   and written as JSON lines when the run ends.  Spans of one pass or
   request share a [trace] number. *)
module Spans = struct
  type span = {
    trace : int;
    id : int;
    parent : int;  (** -1 for a root *)
    name : string;
    attrs : (string * string) list;
    start : float;
    stop : float;
  }

  let lock = Mutex.create ()
  let all : span list ref = ref []
  let next = Atomic.make 0
  let fresh () = Atomic.fetch_and_add next 1

  let add ~trace ~id ~parent ?(attrs = []) name start stop =
    let s = { trace; id; parent; name; attrs; start; stop } in
    Mutex.protect lock (fun () -> all := s :: !all)

  (* run [f] as span [name]; returns its result and its seconds *)
  let time ~trace ~parent ?attrs name f =
    let id = fresh () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    add ~trace ~id ~parent ?attrs name t0 t1;
    (r, t1 -. t0)

  (* per-trace sums of the seconds of the spans [keep] selects *)
  let per_trace keep =
    let sums = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if keep s then
          let prev = Option.value (Hashtbl.find_opt sums s.trace) ~default:0.0 in
          Hashtbl.replace sums s.trace (prev +. (s.stop -. s.start)))
      !all;
    Hashtbl.fold (fun _ v acc -> v :: acc) sums []

  let write path =
    mkdir_p (Filename.dirname path);
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun s ->
            Printf.fprintf oc
              "{\"trace\":%d,\"id\":%d,\"parent\":%d,\"name\":%s,%s\"start\":%.6f,\
               \"dur_ms\":%.6f}\n"
              s.trace s.id s.parent
              (Telemetry.Export.json_string s.name)
              (String.concat ""
                 (List.map
                    (fun (k, v) ->
                      Printf.sprintf "%s:%s," (Telemetry.Export.json_string k)
                        (Telemetry.Export.json_string v))
                    s.attrs))
              s.start
              (ms (s.stop -. s.start)))
          (List.rev !all))
end
