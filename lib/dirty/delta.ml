type op =
  | Insert of { table : string; row : Value.t array }
  | Delete of { table : string; cluster : Value.t; member : int }
  | Split of {
      table : string;
      cluster : Value.t;
      into : Value.t;
      members : int list;
    }
  | Merge of { table : string; from_ : Value.t; into : Value.t }
  | Reassign of { table : string; cluster : Value.t; weights : float array }

type batch = op list

exception Invalid of string

let invalidf fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

type outcome = {
  db : Dirty_db.t;
  touched : (string * Value.t) list;
  actions : Repair.action list;
}

let op_table = function
  | Insert { table; _ }
  | Delete { table; _ }
  | Split { table; _ }
  | Merge { table; _ }
  | Reassign { table; _ } ->
    table

(* {1 Record format} *)

let render_weight f = Printf.sprintf "%.17g" f

let int_field what s =
  match int_of_string_opt (String.trim s) with
  | Some i -> i
  | None -> invalidf "%s: not an integer: %S" what s

let float_field what s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> invalidf "%s: not a number: %S" what s

(* delta records must replay to the same values the in-memory apply
   produced (given the same base), so cells render exactly *)
let op_to_row = function
  | Insert { table; row } ->
    "insert" :: table :: Array.to_list (Array.map Value.to_exact_string row)
  | Delete { table; cluster; member } ->
    [ "delete"; table; Value.to_exact_string cluster; string_of_int member ]
  | Split { table; cluster; into; members } ->
    "split" :: table :: Value.to_exact_string cluster :: Value.to_exact_string into
    :: List.map string_of_int members
  | Merge { table; from_; into } ->
    [ "merge"; table; Value.to_exact_string from_; Value.to_exact_string into ]
  | Reassign { table; cluster; weights } ->
    "reassign" :: table :: Value.to_exact_string cluster
    :: Array.to_list (Array.map render_weight weights)

let op_of_row = function
  | "insert" :: table :: (_ :: _ as values) ->
    Insert { table; row = Array.of_list (List.map Value.parse values) }
  | [ "delete"; table; cluster; member ] ->
    Delete
      {
        table;
        cluster = Value.parse cluster;
        member = int_field "delete member" member;
      }
  | "split" :: table :: cluster :: into :: (_ :: _ as members) ->
    Split
      {
        table;
        cluster = Value.parse cluster;
        into = Value.parse into;
        members = List.map (int_field "split member") members;
      }
  | [ "merge"; table; from_; into ] ->
    Merge { table; from_ = Value.parse from_; into = Value.parse into }
  | "reassign" :: table :: cluster :: (_ :: _ as weights) ->
    Reassign
      {
        table;
        cluster = Value.parse cluster;
        weights =
          Array.of_list (List.map (float_field "reassign weight") weights);
      }
  | row -> invalidf "malformed delta record: %S" (String.concat "," row)

let to_rows batch = List.map op_to_row batch
let of_rows rows = List.map op_of_row rows

let op_to_string = function
  | Insert { table; row } ->
    Printf.sprintf "insert %s (%s)" table
      (String.concat ", " (Array.to_list (Array.map Value.to_string row)))
  | Delete { table; cluster; member } ->
    Printf.sprintf "delete %s cluster %s member %d" table
      (Value.to_string cluster) member
  | Split { table; cluster; into; members } ->
    Printf.sprintf "split %s cluster %s -> %s members [%s]" table
      (Value.to_string cluster) (Value.to_string into)
      (String.concat "," (List.map string_of_int members))
  | Merge { table; from_; into } ->
    Printf.sprintf "merge %s cluster %s into %s" table (Value.to_string from_)
      (Value.to_string into)
  | Reassign { table; cluster; weights } ->
    Printf.sprintf "reassign %s cluster %s weights [%s]" table
      (Value.to_string cluster)
      (String.concat ","
         (Array.to_list (Array.map (Printf.sprintf "%g") weights)))

(* {1 Application} *)

let find_table db name =
  match Dirty_db.find_table_opt db name with
  | Some t -> t
  | None -> invalidf "unknown table %S" name

let replace_table db (tbl : Dirty_db.table) =
  List.fold_left
    (fun acc (t : Dirty_db.table) ->
      Dirty_db.add_table acc (if String.equal t.name tbl.name then tbl else t))
    Dirty_db.empty (Dirty_db.tables db)

let rebuild (tbl : Dirty_db.table) rows =
  let rel = Relation.create (Relation.schema tbl.relation) rows in
  Dirty_db.make_table ~validate:false ~name:tbl.name ~id_attr:tbl.id_attr
    ~prob_attr:tbl.prob_attr rel

let renormalize tbl = Repair.repair_table ~policy:Repair.Renormalize tbl

let check_prob what v =
  match Value.to_float v with
  | Some p when Float.is_finite p && p >= 0.0 && p <= 1.0 -> ()
  | _ ->
    invalidf "%s: probability must be a finite number in [0, 1], got %s" what
      (Value.to_string v)

let apply_op db op =
  let tbl = find_table db (op_table op) in
  let schema = Relation.schema tbl.relation in
  let id_ix = Schema.index_of schema tbl.id_attr in
  let prob_ix = Schema.index_of schema tbl.prob_attr in
  let rows () = Relation.rows tbl.relation in
  match op with
  | Insert { row; _ } ->
    if Array.length row <> Schema.arity schema then
      invalidf "insert into %s: row arity %d, schema expects %d" tbl.name
        (Array.length row) (Schema.arity schema);
    if Value.is_null row.(id_ix) then
      invalidf "insert into %s: identifier attribute %s must not be NULL"
        tbl.name tbl.id_attr;
    check_prob (Printf.sprintf "insert into %s" tbl.name) row.(prob_ix);
    let rows' = Array.to_list (rows ()) @ [ Array.copy row ] in
    let tbl', actions = renormalize (rebuild tbl rows') in
    (replace_table db tbl', [ (tbl.name, row.(id_ix)) ], actions)
  | Delete { cluster; member; _ } ->
    let members = Dirty_db.cluster_rows tbl cluster in
    if members = [] then
      invalidf "delete from %s: unknown cluster %s" tbl.name
        (Value.to_string cluster);
    let n = List.length members in
    if member < 0 || member >= n then
      invalidf "delete from %s cluster %s: member %d out of range (size %d)"
        tbl.name (Value.to_string cluster) member n;
    let victim = List.nth members member in
    let rows' =
      Array.to_list (rows ()) |> List.filteri (fun i _ -> i <> victim)
    in
    let tbl', actions = renormalize (rebuild tbl rows') in
    (replace_table db tbl', [ (tbl.name, cluster) ], actions)
  | Split { cluster; into; members = picked; _ } ->
    let members = Dirty_db.cluster_rows tbl cluster in
    if members = [] then
      invalidf "split %s: unknown cluster %s" tbl.name
        (Value.to_string cluster);
    if Value.equal cluster into then
      invalidf "split %s cluster %s: target must differ from source" tbl.name
        (Value.to_string cluster);
    if picked = [] then
      invalidf "split %s cluster %s: empty member list" tbl.name
        (Value.to_string cluster);
    let n = List.length members in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun m ->
        if m < 0 || m >= n then
          invalidf "split %s cluster %s: member %d out of range (size %d)"
            tbl.name (Value.to_string cluster) m n;
        if Hashtbl.mem seen m then
          invalidf "split %s cluster %s: duplicate member %d" tbl.name
            (Value.to_string cluster) m;
        Hashtbl.add seen m ())
      picked;
    let move = List.map (fun m -> List.nth members m) picked in
    let rows' =
      Array.to_list
        (Array.mapi
           (fun i r ->
             if List.mem i move then (
               let r = Array.copy r in
               r.(id_ix) <- into;
               r)
             else r)
           (rows ()))
    in
    let tbl', actions = renormalize (rebuild tbl rows') in
    (replace_table db tbl', [ (tbl.name, cluster); (tbl.name, into) ], actions)
  | Merge { from_; into; _ } ->
    if Value.equal from_ into then
      invalidf "merge %s: cluster %s into itself" tbl.name
        (Value.to_string into);
    let members = Dirty_db.cluster_rows tbl from_ in
    if members = [] then
      invalidf "merge %s: unknown cluster %s" tbl.name (Value.to_string from_);
    let rows' =
      Array.to_list
        (Array.mapi
           (fun i r ->
             if List.mem i members then (
               let r = Array.copy r in
               r.(id_ix) <- into;
               r)
             else r)
           (rows ()))
    in
    let tbl', actions = renormalize (rebuild tbl rows') in
    (replace_table db tbl', [ (tbl.name, from_); (tbl.name, into) ], actions)
  | Reassign { cluster; weights; _ } ->
    let members = Dirty_db.cluster_rows tbl cluster in
    if members = [] then
      invalidf "reassign %s: unknown cluster %s" tbl.name
        (Value.to_string cluster);
    let n = List.length members in
    if Array.length weights <> n then
      invalidf "reassign %s cluster %s: %d weights for %d members" tbl.name
        (Value.to_string cluster) (Array.length weights) n;
    Array.iter
      (fun w ->
        if not (Float.is_finite w && w >= 0.0) then
          invalidf "reassign %s cluster %s: weights must be finite and >= 0"
            tbl.name (Value.to_string cluster))
      weights;
    let total = Array.fold_left ( +. ) 0.0 weights in
    if total <= 0.0 then
      invalidf "reassign %s cluster %s: weight sum must be positive" tbl.name
        (Value.to_string cluster);
    let rows' = Array.map Fun.id (rows ()) in
    List.iteri
      (fun ord ri ->
        let r = Array.copy rows'.(ri) in
        r.(prob_ix) <- Value.Float (weights.(ord) /. total);
        rows'.(ri) <- r)
      members;
    let tbl' = rebuild tbl (Array.to_list rows') in
    (replace_table db tbl', [ (tbl.name, cluster) ], [])

let apply db batch =
  let db, rev_touched, rev_actions =
    List.fold_left
      (fun (db, touched, actions) op ->
        let db, t, a = apply_op db op in
        (db, List.rev_append t touched, List.rev_append a actions))
      (db, [], []) batch
  in
  let touched =
    List.fold_left
      (fun acc (t, c) ->
        if
          List.exists
            (fun (t', c') -> String.equal t t' && Value.equal c c')
            acc
        then acc
        else (t, c) :: acc)
      [] (List.rev rev_touched)
    |> List.rev
  in
  { db; touched; actions = List.rev rev_actions }
