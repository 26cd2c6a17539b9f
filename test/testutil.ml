(* Helpers shared by every test suite. *)

(* Recursive removal: store directories now hold generations,
   journals, and possibly nested debris, so the old "remove the
   entries, then rmdir" cleanup (which broke on any subdirectory)
   lives here in a form that actually recurses. *)
let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_temp_dir f =
  let dir = Filename.temp_file "conquer" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* bitwise answer equality: same rows in the same order, floats
   compared by their bits *)
let cell_bits_equal a b =
  match (a, b) with
  | Dirty.Value.Float x, Dirty.Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Dirty.Value.Float _, _ | _, Dirty.Value.Float _ -> false
  | _ -> Dirty.Value.equal a b && Dirty.Value.type_of a = Dirty.Value.type_of b

let rows_bits_equal r1 r2 =
  let a = Dirty.Relation.rows r1 and b = Dirty.Relation.rows r2 in
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Array.length x = Array.length y && Array.for_all2 cell_bits_equal x y)
       a b

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Simulate a torn (non-atomic) write: keep only the first [keep]
   bytes of the file, cutting mid-row. *)
let truncate_file path ~keep =
  let s = read_bytes path in
  write_bytes path (String.sub s 0 (min keep (String.length s)))

(* Order-insensitive structural image of a dirty database, for
   exact (rendered-value) equality checks across save/load/replay. *)
let db_fingerprint db =
  List.map
    (fun (t : Dirty.Dirty_db.table) ->
      ( t.name,
        t.id_attr,
        t.prob_attr,
        Dirty.Schema.names (Dirty.Relation.schema t.relation),
        List.sort compare
          (List.map
             (fun row ->
               Array.to_list (Array.map Dirty.Value.to_string row))
             (Array.to_list (Dirty.Relation.rows t.relation))) ))
    (Dirty.Dirty_db.tables db)
