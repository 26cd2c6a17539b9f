type t =
  | Scan of { table : string; alias : string }
  | Filter of { input : t; pred : Sql.Ast.expr }
  | Project of { input : t; items : (Sql.Ast.expr * string) list }
  | Hash_join of {
      left : t;
      right : t;
      left_keys : Sql.Ast.expr list;
      right_keys : Sql.Ast.expr list;
      outer : bool;
      residual : Sql.Ast.expr option;
      keep : string list option;
    }
  | Index_join of {
      left : t;
      table : string;
      alias : string;
      left_keys : Sql.Ast.expr list;
      right_attrs : string list;
      keep : string list option;
    }
  | Aggregate of {
      input : t;
      group_by : Sql.Ast.expr list;
      items : (Sql.Ast.expr * string) list;
      having : Sql.Ast.expr option;
    }
  | Sort of { input : t; keys : (Sql.Ast.expr * bool) list }
  | Distinct of t
  | Limit of t * int

let expr_to_string = Sql.Pretty.expr_to_string

let exprs_to_string es = String.concat ", " (List.map expr_to_string es)

let keep_to_string = function
  | None -> ""
  | Some names -> " keep [" ^ String.concat ", " names ^ "]"

let rec pp_indent fmt indent plan =
  let pad () = Format.pp_print_string fmt (String.make indent ' ') in
  pad ();
  match plan with
  | Scan { table; alias } ->
    if table = alias then Format.fprintf fmt "Scan %s@\n" table
    else Format.fprintf fmt "Scan %s AS %s@\n" table alias
  | Filter { input; pred } ->
    Format.fprintf fmt "Filter (%s)@\n" (expr_to_string pred);
    pp_indent fmt (indent + 2) input
  | Project { input; items } ->
    Format.fprintf fmt "Project [%s]@\n"
      (String.concat ", "
         (List.map (fun (e, n) -> expr_to_string e ^ " AS " ^ n) items));
    pp_indent fmt (indent + 2) input
  | Hash_join { left; right; left_keys; right_keys; outer; residual; keep } ->
    Format.fprintf fmt "HashJoin%s %s%s%s@\n"
      (if outer then " LEFT OUTER" else "")
      (if left_keys = [] then "(no keys)"
       else Printf.sprintf "(%s = %s)" (exprs_to_string left_keys) (exprs_to_string right_keys))
      (match residual with None -> "" | Some e -> " residual (" ^ expr_to_string e ^ ")")
      (keep_to_string keep);
    pp_indent fmt (indent + 2) left;
    pp_indent fmt (indent + 2) right
  | Index_join { left; table; alias; left_keys; right_attrs; keep } ->
    Format.fprintf fmt "IndexJoin %s AS %s (%s = %s)%s@\n" table alias
      (exprs_to_string left_keys)
      (String.concat ", " right_attrs)
      (keep_to_string keep);
    pp_indent fmt (indent + 2) left
  | Aggregate { input; group_by; items; having } ->
    Format.fprintf fmt "Aggregate group=[%s] out=[%s]%s@\n"
      (exprs_to_string group_by)
      (String.concat ", "
         (List.map (fun (e, n) -> expr_to_string e ^ " AS " ^ n) items))
      (match having with
      | None -> ""
      | Some h -> " having=(" ^ expr_to_string h ^ ")");
    pp_indent fmt (indent + 2) input
  | Sort { input; keys } ->
    Format.fprintf fmt "Sort [%s]@\n"
      (String.concat ", "
         (List.map
            (fun (e, desc) -> expr_to_string e ^ if desc then " DESC" else "")
            keys));
    pp_indent fmt (indent + 2) input
  | Distinct input ->
    Format.fprintf fmt "Distinct@\n";
    pp_indent fmt (indent + 2) input
  | Limit (input, n) ->
    Format.fprintf fmt "Limit %d@\n" n;
    pp_indent fmt (indent + 2) input

let pp fmt plan = pp_indent fmt 0 plan
let to_string plan = Format.asprintf "%a" pp plan
