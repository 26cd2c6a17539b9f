(* Journaled, checksummed directory persistence.

   Layout (format v2):

     dir/
       CURRENT            -- "2\n": the committed generation number
       journal.g2.csv     -- file,bytes,crc32 for every gen-2 file
       manifest.g2.csv    -- name,id_attr,prob_attr,file
       customer.g2.csv
       orders.g2.csv
       ... generation-1 files (previous snapshot, kept for recovery)

   A save writes the new generation's table files, then the journal
   (which records each file's size and CRC-32, including the manifest's,
   computed before anything is written), then the manifest, and only
   then flips CURRENT — the single atomic commit point.  Every file is
   written to a temp name, fsynced, renamed into place, and the
   directory entry synced, so a crash at any syscall boundary leaves
   either the old committed generation fully intact or the new one
   fully committed, never a mix.  [load] verifies every checksum and
   falls back to the previous intact generation (or the legacy v1
   layout) when verification fails.

   The legacy v1 layout — a bare [manifest.csv] plus [<table>.csv],
   no checksums — is still readable; the first v2 save over it keeps
   it around as generation 0's fallback and the second one cleans it
   up, like any superseded generation.

   Format v3 adds delta generations: a generation is either a full
   snapshot as above or a journaled batch of update records
   ([delta.g<k>.csv], first row naming the parent generation) whose
   journal covers just that file.  Loading a delta generation loads
   the snapshot at the base of its chain and replays each batch in
   order through [Delta.apply]; commit is the same CURRENT flip, so a
   delta append is crash-atomic at every syscall boundary exactly like
   a full save.  Cleanup and recovery are chain-aware: the whole chain
   of the committed generation and of its fallback stay on disk. *)

let current_name = "CURRENT"
let legacy_manifest_name = "manifest.csv"
let manifest_name g = Printf.sprintf "manifest.g%d.csv" g
let journal_name g = Printf.sprintf "journal.g%d.csv" g
let table_file g name = Printf.sprintf "%s.g%d.csv" name g
let delta_name g = Printf.sprintf "delta.g%d.csv" g
let journal_header = [ "file"; "bytes"; "crc32" ]
let manifest_header = [ "name"; "id_attr"; "prob_attr"; "file" ]

exception Corrupt of { dir : string; detail : string }

let () =
  Printexc.register_printer (function
    | Corrupt { dir; detail } ->
      Some (Printf.sprintf "Dirty.Store.Corrupt: %s: %s" dir detail)
    | _ -> None)

let m_files_written =
  Telemetry.Metrics.counter "dirty.store.files_written"
    ~help:"files persisted by Store.save (tables, journals, manifests)"

let m_bytes_written =
  Telemetry.Metrics.counter "dirty.store.bytes_written"
    ~help:"bytes persisted by Store.save"

let m_renames =
  Telemetry.Metrics.counter "dirty.store.renames"
    ~help:"atomic temp-to-final renames (the per-file commit points)"

let m_recoveries =
  Telemetry.Metrics.counter "dirty.store.recoveries"
    ~help:"loads that fell back to an earlier snapshot after corruption"

let m_delta_commits =
  Telemetry.Metrics.counter "dirty.store.delta_commits"
    ~help:"update batches committed by Store.commit_delta"

let m_journal_bytes =
  Telemetry.Metrics.gauge "dirty.store.journal_bytes"
    ~help:"bytes of journaled delta records in the committed chain"

(* temp names are process-unique; leftovers from crashed saves are
   swept by [recover] *)
let tmp_counter = Atomic.make 0

let tmp_name dir =
  Filename.concat dir
    (Printf.sprintf ".store-%d-%d.tmp" (Unix.getpid ())
       (Atomic.fetch_and_add tmp_counter 1))

(* Write [content] to [path]: temp file, fsync, rename, directory
   sync.  The whole sequence is retried on transient failures (each
   attempt uses a fresh temp name, so a torn attempt cannot pollute
   the next).  The rename is atomic on POSIX filesystems, so readers
   and crash recovery only ever observe the old or the new complete
   file, never a partial write. *)
let write_atomic path content =
  let dir = Filename.dirname path in
  Fault.Retry.with_retry (fun () ->
      let tmp = tmp_name dir in
      let w = Fault.Io.open_out tmp in
      match
        Fault.Io.write w content;
        Fault.Io.fsync w;
        Fault.Io.close w;
        Fault.Io.rename tmp path;
        Fault.Io.fsync_dir dir
      with
      | () ->
        Telemetry.Metrics.inc m_files_written;
        Telemetry.Metrics.inc ~n:(String.length content) m_bytes_written;
        Telemetry.Metrics.inc m_renames
      | exception e ->
        Fault.Io.abort w;
        (try Fault.Io.remove tmp with
        | Sys_error _ | Fault.Io.Io_error _ -> ());
        raise e)

let render_rows rows =
  String.concat "" (List.map (fun fields -> Csv.render_line fields ^ "\n") rows)

let table_content (t : Dirty_db.table) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Csv.render_line (Schema.names (Relation.schema t.relation)));
  Buffer.add_char buf '\n';
  Relation.iter
    (fun row ->
      Csv.add_exact_row buf row;
      Buffer.add_char buf '\n')
    t.relation;
  Buffer.contents buf

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* "orders.g12.csv" -> Some ("orders", 12) *)
let gen_of_file fname =
  match Filename.chop_suffix_opt ~suffix:".csv" fname with
  | None -> None
  | Some stem -> (
    match String.rindex_opt stem '.' with
    | Some i
      when i + 2 < String.length stem
           && stem.[i + 1] = 'g'
           && is_digits (String.sub stem (i + 2) (String.length stem - i - 2))
      -> (
      match int_of_string_opt (String.sub stem (i + 2) (String.length stem - i - 2)) with
      | Some g -> Some (String.sub stem 0 i, g)
      | None -> None)
    | _ -> None)

let is_tmp_file fname =
  String.length fname > 11
  && String.sub fname 0 7 = ".store-"
  && Filename.check_suffix fname ".tmp"

(* generations whose journal file exists, newest first *)
let available_generations dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         match gen_of_file f with
         | Some ("journal", g) -> Some g
         | _ -> None)
  |> List.sort_uniq (fun a b -> compare b a)

let is_delta_generation dir g =
  Sys.file_exists (Filename.concat dir (delta_name g))

(* the snapshot generation at the base of [g]'s chain: [g] itself when
   [g] is a full snapshot, else the first non-delta generation below *)
let rec base_of dir g =
  if g >= 1 && is_delta_generation dir g then base_of dir (g - 1) else g

(* oldest generation still needed as fallback once [cur] is committed:
   everything in the chains of [cur] and of [cur - 1].  When every
   generation is a full snapshot this degenerates to [cur - 1], the
   v2 rule. *)
let fallback_floor dir cur = if cur <= 1 then 1 else base_of dir (cur - 1)

(* What CURRENT says.  [Missing] means no v2 commit ever happened —
   generation files on disk are uncommitted debris and must not be
   loaded.  [Unreadable] means a commit happened but the pointer got
   damaged afterwards; the caller recovers best-effort from whatever
   generations survive. *)
type pointer = Missing | Unreadable | Committed of int

let pointer dir =
  let path = Filename.concat dir current_name in
  if not (Sys.file_exists path) then Missing
  else
    match int_of_string_opt (String.trim (Fault.Io.read_file path)) with
    | Some g when g >= 1 -> Committed g
    | Some _ | None -> Unreadable
    | exception Sys_error _ -> Unreadable

let committed_generation dir =
  match pointer dir with
  | Committed g -> g
  | Unreadable -> (
    match available_generations dir with g :: _ -> g | [] -> 0)
  | Missing -> 0

let generation dir =
  if Sys.file_exists dir && Sys.is_directory dir then committed_generation dir
  else 0

(* delta generations of the committed chain, oldest first *)
let delta_chain dir =
  let cur = committed_generation dir in
  if cur = 0 then []
  else
    let base = base_of dir cur in
    List.init (cur - base) (fun i -> base + 1 + i)

let delta_chain_length dir = List.length (delta_chain dir)

let journal_bytes dir =
  List.fold_left
    (fun acc g ->
      match (Unix.stat (Filename.concat dir (delta_name g))).Unix.st_size with
      | n -> acc + n
      | exception Unix.Unix_error _ -> acc)
    0 (delta_chain dir)

let update_journal_bytes dir =
  Telemetry.Metrics.set m_journal_bytes (float_of_int (journal_bytes dir))

(* best-effort removal: a failure to clean up must not fail a
   committed save (a simulated crash still propagates) *)
let try_remove path =
  try Fault.Io.remove path with Sys_error _ | Fault.Io.Io_error _ -> ()

(* after committing generation [g], drop generations below the
   fallback chain's base and, once a v2 fallback generation exists,
   the legacy v1 files *)
let cleanup_old dir g =
  let floor = fallback_floor dir g in
  Array.iter
    (fun f ->
      match gen_of_file f with
      | Some (_, k) when k < floor -> try_remove (Filename.concat dir f)
      | _ -> ())
    (Sys.readdir dir);
  if g >= 2 && Sys.file_exists (Filename.concat dir legacy_manifest_name) then begin
    let manifest_path = Filename.concat dir legacy_manifest_name in
    (match Csv.read_file manifest_path with
    | rows ->
      List.iter
        (function
          | [ name; _; _ ] when name <> "name" ->
            try_remove (Filename.concat dir (name ^ ".csv"))
          | _ -> ())
        rows
    | exception _ -> ());
    try_remove manifest_path
  end

let save dir db =
  Telemetry.Span.with_ ~name:"store.save" ~attrs:[ ("dir", dir) ] @@ fun () ->
  if not (Sys.file_exists dir) then Fault.Io.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  let g = committed_generation dir + 1 in
  let tables = Dirty_db.tables db in
  let files =
    List.map
      (fun (t : Dirty_db.table) -> (table_file g t.name, table_content t))
      tables
  in
  let manifest_rows =
    manifest_header
    :: List.map
         (fun (t : Dirty_db.table) ->
           [ t.name; t.id_attr; t.prob_attr; table_file g t.name ])
         tables
  in
  let manifest_content = render_rows manifest_rows in
  let journal_rows =
    journal_header
    :: List.map
         (fun (file, content) ->
           [
             file;
             string_of_int (String.length content);
             Fault.Crc32.to_hex (Fault.Crc32.string content);
           ])
         (files @ [ (manifest_name g, manifest_content) ])
  in
  (* tables first, then the journal (sizes + checksums for everything,
     manifest included — contents are fixed before any byte is
     written), then the manifest, then the CURRENT flip: the commit
     point.  Everything before the flip is invisible to [load];
     everything after it is pure cleanup. *)
  List.iter
    (fun (file, content) -> write_atomic (Filename.concat dir file) content)
    files;
  write_atomic
    (Filename.concat dir (journal_name g))
    (render_rows journal_rows);
  write_atomic (Filename.concat dir (manifest_name g)) manifest_content;
  write_atomic (Filename.concat dir current_name) (string_of_int g ^ "\n");
  cleanup_old dir g;
  update_journal_bytes dir

let commit_delta dir batch =
  Telemetry.Span.with_ ~name:"store.commit_delta" ~attrs:[ ("dir", dir) ]
  @@ fun () ->
  if batch = [] then invalid_arg "Dirty.Store.commit_delta: empty batch";
  (match pointer dir with
  | Committed _ -> ()
  | Missing | Unreadable ->
    raise
      (Sys_error (dir ^ ": no committed v2 generation to append a delta to")));
  let parent = committed_generation dir in
  let g = parent + 1 in
  let content =
    render_rows
      ([ "delta"; "parent"; string_of_int parent ] :: Delta.to_rows batch)
  in
  let journal_rows =
    journal_header
    :: [
         [
           delta_name g;
           string_of_int (String.length content);
           Fault.Crc32.to_hex (Fault.Crc32.string content);
         ];
       ]
  in
  (* the delta record, then its journal, then the CURRENT flip — the
     same commit point as [save], so the append is atomic at every
     syscall boundary *)
  write_atomic (Filename.concat dir (delta_name g)) content;
  write_atomic (Filename.concat dir (journal_name g)) (render_rows journal_rows);
  write_atomic (Filename.concat dir current_name) (string_of_int g ^ "\n");
  Telemetry.Metrics.inc m_delta_commits;
  cleanup_old dir g;
  update_journal_bytes dir;
  g

(* a generation that cannot be trusted: missing file, size or CRC
   mismatch, malformed journal/manifest — grounds for falling back *)
exception Unusable of string

let failf fmt = Printf.ksprintf (fun s -> raise (Unusable s)) fmt

let describe_exn = function
  | Sys_error msg -> msg
  | Dirty_db.Invalid msg -> msg
  | Invalid_argument msg -> msg
  | Failure msg -> msg
  | Unusable msg -> msg
  | Csv.Parse_error { path; line; msg } ->
    Printf.sprintf "%s:%d: %s" path line msg
  | e -> Printexc.to_string e

let journal_entries dir g =
  let journal_path = Filename.concat dir (journal_name g) in
  let journal =
    match Fault.Io.read_file journal_path with
    | s -> s
    | exception Sys_error msg -> failf "%s" msg
  in
  match Csv.parse_rows journal with
  | header :: rest when header = journal_header ->
    List.map
      (function
        | [ file; bytes; crc ] -> (
          match (int_of_string_opt bytes, Fault.Crc32.of_hex crc) with
          | Some b, Some c -> (file, b, c)
          | _ -> failf "%s: malformed journal row" journal_path)
        | _ -> failf "%s: malformed journal row" journal_path)
      rest
  | _ -> failf "%s: malformed journal header" journal_path

(* read a journalled file and verify its size and checksum *)
let checked dir entries file =
  let path = Filename.concat dir file in
  match List.find_opt (fun (f, _, _) -> f = file) entries with
  | None -> failf "%s not covered by the journal" file
  | Some (_, bytes, crc) -> (
    match Fault.Io.read_file path with
    | exception Sys_error msg -> failf "%s" msg
    | content ->
      if String.length content <> bytes then
        failf "%s: size %d does not match journalled %d" path
          (String.length content) bytes
      else if Fault.Crc32.string content <> crc then
        failf "%s: checksum mismatch" path
      else content)

(* a generation is a delta batch exactly when its journal covers the
   delta record file *)
let journal_has_delta g entries =
  List.exists (fun (f, _, _) -> f = delta_name g) entries

let parse_delta dir g entries =
  let file = delta_name g in
  let path = Filename.concat dir file in
  let content = checked dir entries file in
  match Csv.parse_rows content with
  | [ "delta"; "parent"; p ] :: ops -> (
    (match int_of_string_opt p with
    | Some parent when parent = g - 1 -> ()
    | Some _ | None ->
      failf "%s: delta parent %S does not match generation %d" path p g);
    match Delta.of_rows ops with
    | batch -> batch
    | exception Delta.Invalid msg -> failf "%s: %s" path msg)
  | _ -> failf "%s: malformed delta header" path

let load_snapshot_generation ~validate ~lenient ~warn dir g entries =
  let checked file = checked dir entries file in
  let manifest = checked (manifest_name g) in
  let manifest_path = Filename.concat dir (manifest_name g) in
  let rows =
    match Csv.parse_rows manifest with
    | header :: rows when header = manifest_header -> rows
    | _ -> failf "%s: malformed manifest header" manifest_path
  in
  List.fold_left
    (fun db row ->
      match row with
      | [ name; id_attr; prob_attr; file ] -> (
        match
          let content = checked file in
          let relation =
            Csv.relation_of_string ~path:(Filename.concat dir file) content
          in
          Dirty_db.make_table ~validate ~name ~id_attr ~prob_attr relation
        with
        | table -> Dirty_db.add_table db table
        (* lenient mode skips a damaged table (checksum-bad included);
           strict mode lets [Unusable] trigger generation fallback and
           validation errors propagate to the caller *)
        | exception e when lenient ->
          warn (Printf.sprintf "table %s skipped: %s" name (describe_exn e));
          db)
      | row ->
        if lenient then begin
          warn
            (Printf.sprintf "%s: malformed manifest row [%s] skipped"
               manifest_path (String.concat "," row));
          db
        end
        else failf "%s: malformed manifest row" manifest_path)
    Dirty_db.empty rows

(* Load generation [g]: a snapshot directly, a delta generation by
   loading its parent (recursively, down to the snapshot at the base
   of the chain) and replaying the batch.  Any CRC, parse or replay
   failure raises [Unusable], triggering generation fallback. *)
let rec load_generation ~validate ~lenient ~warn dir g =
  if g < 1 then failf "delta chain has no snapshot base"
  else begin
    let entries = journal_entries dir g in
    if journal_has_delta g entries then begin
      let batch = parse_delta dir g entries in
      let base = load_generation ~validate ~lenient ~warn dir (g - 1) in
      match Delta.apply base batch with
      | outcome -> outcome.Delta.db
      | exception Delta.Invalid msg ->
        failf "%s: replay failed: %s" (delta_name g) msg
    end
    else load_snapshot_generation ~validate ~lenient ~warn dir g entries
  end

(* The pre-journal v1 layout: no checksums, so structural damage
   surfaces as parse/validation errors instead of CRC mismatches. *)
let load_legacy ~validate ~lenient ~warn dir =
  let manifest_path = Filename.concat dir legacy_manifest_name in
  let rows = Csv.read_file manifest_path in
  let entries =
    match rows with
    | [ "name"; "id_attr"; "prob_attr" ] :: entries -> entries
    | _ -> raise (Sys_error (manifest_path ^ ": malformed manifest header"))
  in
  List.fold_left
    (fun db entry ->
      match entry with
      | [ name; id_attr; prob_attr ] -> (
        let path = Filename.concat dir (name ^ ".csv") in
        match
          let relation = Csv.load_file path in
          Dirty_db.make_table ~validate ~name ~id_attr ~prob_attr relation
        with
        | table -> Dirty_db.add_table db table
        | exception e when lenient ->
          warn (Printf.sprintf "table %s skipped: %s" name (describe_exn e));
          db)
      | entry ->
        if lenient then begin
          warn
            (Printf.sprintf "%s: malformed manifest row [%s] skipped"
               manifest_path (String.concat "," entry));
          db
        end
        else raise (Sys_error (manifest_path ^ ": malformed manifest row")))
    Dirty_db.empty entries

let load_verbose ?(validate = true) ?(lenient = false) dir =
  Telemetry.Span.with_ ~name:"store.load" ~attrs:[ ("dir", dir) ] @@ fun () ->
  let warnings = ref [] in
  let warn s = warnings := s :: !warnings in
  let available = if Sys.file_exists dir then available_generations dir else [] in
  let pointer_damaged = ref false in
  let candidates =
    match pointer dir with
    | Committed g -> g :: List.filter (fun k -> k < g) available
    | Unreadable ->
      warn "CURRENT unreadable; recovering from surviving generations";
      pointer_damaged := true;
      available
    | Missing -> []
  in
  let have_legacy =
    Sys.file_exists (Filename.concat dir legacy_manifest_name)
  in
  let db =
    if candidates = [] then
      (* no v2 snapshot at all: plain legacy directory (or nothing —
         load_legacy raises the usual Sys_error for a missing dir) *)
      load_legacy ~validate ~lenient ~warn dir
    else begin
      let fallen_back = ref !pointer_damaged in
      let rec try_gens = function
        | [] ->
          if have_legacy then begin
            fallen_back := true;
            match load_legacy ~validate ~lenient ~warn dir with
            | db -> db
            | exception e ->
              raise
                (Corrupt
                   {
                     dir;
                     detail =
                       "no intact snapshot: legacy fallback failed: "
                       ^ describe_exn e;
                   })
          end
          else
            raise (Corrupt { dir; detail = "no intact snapshot generation" })
        | g :: rest -> (
          match load_generation ~validate ~lenient ~warn dir g with
          | db -> db
          | exception Unusable detail ->
            warn (Printf.sprintf "generation %d unusable: %s" g detail);
            fallen_back := true;
            try_gens rest)
      in
      let db = try_gens candidates in
      if !fallen_back then Telemetry.Metrics.inc m_recoveries;
      db
    end
  in
  if Sys.file_exists dir && Sys.is_directory dir then update_journal_bytes dir;
  (db, List.rev !warnings)

let load ?validate ?lenient dir = fst (load_verbose ?validate ?lenient dir)

let recover dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else begin
    let cur = committed_generation dir in
    let floor = if cur >= 1 then fallback_floor dir cur else 1 in
    let actions = ref [] in
    let remove f reason =
      match Fault.Io.remove (Filename.concat dir f) with
      | () -> actions := Printf.sprintf "removed %s (%s)" f reason :: !actions
      | exception (Sys_error _ | Fault.Io.Io_error _) -> ()
    in
    Array.iter
      (fun f ->
        if is_tmp_file f then remove f "orphaned temp file"
        else
          match gen_of_file f with
          | Some (_, k) when k > cur ->
            remove f "in-flight generation never committed"
          | Some (_, k) when k < floor -> remove f "superseded generation"
          | _ -> ())
      (Sys.readdir dir);
    List.rev !actions
  end

(* {1 Integrity checking} *)

type check = {
  check_generation : int;
  check_kind : [ `Snapshot | `Delta ];
  check_in_chain : bool;
  check_result : (unit, string) result;
}

let check_generation dir ~chain g =
  let kind = if is_delta_generation dir g then `Delta else `Snapshot in
  let result =
    match
      let entries = journal_entries dir g in
      List.iter (fun (f, _, _) -> ignore (checked dir entries f)) entries;
      if journal_has_delta g entries then ignore (parse_delta dir g entries)
    with
    | () -> Ok ()
    | exception Unusable msg -> Error msg
  in
  {
    check_generation = g;
    check_kind = kind;
    check_in_chain = List.mem g chain;
    check_result = result;
  }

let check_generations dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else begin
    let cur = committed_generation dir in
    let chain =
      if cur = 0 then []
      else
        let base = base_of dir cur in
        List.init (cur - base + 1) (fun i -> base + i)
    in
    List.map (check_generation dir ~chain) (available_generations dir)
  end
