type attribute = { name : string; ty : Value.ty }

type t = {
  attrs : attribute array;
  by_name : (string, int) Hashtbl.t;
}

let build attrs =
  let by_name = Hashtbl.create (Array.length attrs * 2) in
  Array.iteri
    (fun i a ->
      if Hashtbl.mem by_name a.name then
        invalid_arg (Printf.sprintf "Schema.make: duplicate attribute %S" a.name);
      Hashtbl.add by_name a.name i)
    attrs;
  { attrs; by_name }

let make pairs =
  let attrs =
    Array.of_list
      (List.map (fun (name, ty) -> { name = String.lowercase_ascii name; ty }) pairs)
  in
  build attrs

let attributes t = Array.to_list t.attrs
let arity t = Array.length t.attrs
let names t = List.map (fun a -> a.name) (attributes t)
let mem t name = Hashtbl.mem t.by_name (String.lowercase_ascii name)

let index_of t name =
  match Hashtbl.find_opt t.by_name (String.lowercase_ascii name) with
  | Some i -> i
  | None -> raise Not_found

let index_of_opt t name = Hashtbl.find_opt t.by_name (String.lowercase_ascii name)
let attribute_at t i = t.attrs.(i)

let project t names =
  build (Array.of_list (List.map (fun n -> t.attrs.(index_of t n)) names))

let append a b =
  let na = Array.length a.attrs in
  (* one name table serves both the duplicate check and the result *)
  let by_name = Hashtbl.create ((na + Array.length b.attrs) * 2) in
  Array.iteri (fun i at -> Hashtbl.add by_name at.name i) a.attrs;
  let fresh name =
    if not (Hashtbl.mem by_name name) then name
    else
      let rec go i =
        let candidate = Printf.sprintf "%s_%d" name i in
        if Hashtbl.mem by_name candidate then go (i + 1) else candidate
      in
      go 2
  in
  let renamed =
    Array.mapi
      (fun j at ->
        let name = fresh at.name in
        Hashtbl.add by_name name (na + j);
        { at with name })
      b.attrs
  in
  { attrs = Array.append a.attrs renamed; by_name }

let rename ~prefix t =
  build
    (Array.map
       (fun a -> { a with name = String.lowercase_ascii prefix ^ "." ^ a.name })
       t.attrs)

let equal a b =
  arity a = arity b
  && Array.for_all2 (fun x y -> x.name = y.name && x.ty = y.ty) a.attrs b.attrs

let pp fmt t =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       (fun fmt a -> Format.fprintf fmt "%s %s" a.name (Value.ty_name a.ty)))
    (attributes t)
