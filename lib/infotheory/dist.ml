(* A distribution is two parallel arrays: the symbols of its support,
   strictly ascending, and their masses.  Every operation visits the
   entries in ascending symbol order and keeps a fixed order of float
   operations (DESIGN.md, [lib/infotheory]); prepared probabilities
   depend on that order to the last bit. *)
type t = { syms : int array; mass : float array }

let empty = { syms = [||]; mass = [||] }
let ln2 = Float.log 2.0
let[@inline] log2 x = Float.log x /. ln2

let of_assoc pairs =
  List.iter
    (fun (_, mass) -> if mass < 0.0 then invalid_arg "Dist.of_assoc: negative mass")
    pairs;
  let a = Array.of_list (List.filter (fun (_, mass) -> mass <> 0.0) pairs) in
  (* stable, so a symbol's masses accumulate in input order *)
  Array.stable_sort (fun (s1, _) (s2, _) -> Int.compare s1 s2) a;
  let n = Array.length a in
  let syms = Array.make n 0 and mass = Array.make n 0.0 in
  let k = ref 0 in
  Array.iter
    (fun (sym, m) ->
      if !k > 0 && syms.(!k - 1) = sym then mass.(!k - 1) <- mass.(!k - 1) +. m
      else begin
        syms.(!k) <- sym;
        mass.(!k) <- m;
        incr k
      end)
    a;
  if !k = n then { syms; mass } else { syms = Array.sub syms 0 !k; mass = Array.sub mass 0 !k }

let of_sorted syms mass =
  let n = Array.length syms in
  if Array.length mass <> n then invalid_arg "Dist.of_sorted: length mismatch";
  for i = 0 to n - 1 do
    if not (mass.(i) > 0.0) then invalid_arg "Dist.of_sorted: non-positive mass";
    if i > 0 && syms.(i - 1) >= syms.(i) then
      invalid_arg "Dist.of_sorted: symbols not strictly ascending"
  done;
  { syms; mass }

let uniform symbols =
  match symbols with
  | [] -> invalid_arg "Dist.uniform: empty support"
  | _ ->
    let p = 1.0 /. float_of_int (List.length symbols) in
    of_assoc (List.map (fun s -> (s, p)) symbols)

let singleton sym = { syms = [| sym |]; mass = [| 1.0 |] }

(* the index of [sym] in [syms], or -1 *)
let find syms sym =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let s = syms.(mid) in
      if s = sym then mid else if s < sym then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length syms)

let prob t sym =
  let i = find t.syms sym in
  if i < 0 then 0.0 else t.mass.(i)

let support t = Array.to_list t.syms
let support_size t = Array.length t.syms
let total_mass t = Array.fold_left ( +. ) 0.0 t.mass
let is_normalized ?(eps = 1e-9) t = Float.abs (total_mass t -. 1.0) <= eps

let normalize t =
  let z = total_mass t in
  if z <= 0.0 then invalid_arg "Dist.normalize: zero mass"
  else { t with mass = Array.map (fun m -> m /. z) t.mass }

(* the entries without those of zero mass; the arrays themselves when
   that is all of them *)
let compact syms mass =
  let n = Array.length syms in
  let zeros = ref 0 in
  for i = 0 to n - 1 do
    if mass.(i) = 0.0 then incr zeros
  done;
  if !zeros = 0 then { syms; mass }
  else begin
    let syms' = Array.make (n - !zeros) 0 and mass' = Array.make (n - !zeros) 0.0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if mass.(i) <> 0.0 then begin
        syms'.(!k) <- syms.(i);
        mass'.(!k) <- mass.(i);
        incr k
      end
    done;
    { syms = syms'; mass = mass' }
  end

let scale w t = compact t.syms (Array.map (fun m -> m *. w) t.mass)

(* A mixture entry is [w1·p(x)], then [+ w2·q(x)]; a zero contribution
   is skipped, so [c1 +. c2] is only formed when both are non-zero. *)
let[@inline] entry c1 c2 = if c1 = 0.0 then c2 else if c2 = 0.0 then c1 else c1 +. c2

(* The hot loops below walk two supports in one ascending merge, with
   no closure: at each step the lower symbol is [p]'s alone, [q]'s
   alone, or shared. *)

let union_size p q =
  let np = Array.length p.syms and nq = Array.length q.syms in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !i < np && !j < nq do
    let sp = p.syms.(!i) and sq = q.syms.(!j) in
    if sp <= sq then incr i;
    if sq <= sp then incr j;
    incr n
  done;
  !n + (np - !i) + (nq - !j)

(* [w1·p + w2·q] in one linear merge *)
let mix2 w1 p w2 q =
  let np = Array.length p.syms and nq = Array.length q.syms in
  let n = union_size p q in
  let syms = Array.make n 0 and mass = Array.make n 0.0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to n - 1 do
    if !j >= nq || (!i < np && p.syms.(!i) < q.syms.(!j)) then begin
      syms.(k) <- p.syms.(!i);
      mass.(k) <- w1 *. p.mass.(!i);
      incr i
    end
    else if !i >= np || q.syms.(!j) < p.syms.(!i) then begin
      syms.(k) <- q.syms.(!j);
      mass.(k) <- w2 *. q.mass.(!j);
      incr j
    end
    else begin
      syms.(k) <- p.syms.(!i);
      mass.(k) <- entry (w1 *. p.mass.(!i)) (w2 *. q.mass.(!j));
      incr i;
      incr j
    end
  done;
  compact syms mass

let mix = function
  | [ (w1, p); (w2, q) ] -> mix2 w1 p w2 q
  | weighted ->
    (* [1.0 *. m = m] exactly, so the running sum is carried unchanged *)
    List.fold_left (fun acc (w, d) -> mix2 1.0 acc w d) empty weighted

let fold f t init =
  let acc = ref init in
  for i = 0 to Array.length t.syms - 1 do
    acc := f t.syms.(i) t.mass.(i) !acc
  done;
  !acc

let entropy t =
  Array.fold_left (fun acc p -> if p > 0.0 then acc -. (p *. log2 p) else acc) 0.0 t.mass

let kl_fail () = invalid_arg "Dist.kl_divergence: support of p not contained in q"

let kl_divergence p q =
  let nq = Array.length q.syms in
  let acc = ref 0.0 and j = ref 0 in
  for i = 0 to Array.length p.syms - 1 do
    let pp = p.mass.(i) in
    if pp <= 0.0 then ()
    else begin
      let sym = p.syms.(i) in
      while !j < nq && q.syms.(!j) < sym do
        incr j
      done;
      let qq = if !j < nq && q.syms.(!j) = sym then q.mass.(!j) else 0.0 in
      if qq <= 0.0 then kl_fail () else acc := !acc +. (pp *. log2 (pp /. qq))
    end
  done;
  !acc

(* [pp·log₂(pp/m)], the KL term of a symbol with mass [pp] *)
let[@inline] kl_term pp m =
  if m <= 0.0 then kl_fail () else pp *. log2 (pp /. m)

let js_divergence ?(w1 = 0.5) ?(w2 = 0.5) p q =
  if Float.abs (w1 +. w2 -. 1.0) <= 1e-12 then begin
    (* one merge pass: each symbol's mixture entry [m(x)], used at once
       by the KL term of whichever of [p] and [q] holds the symbol;
       each KL sum still runs over its own support in ascending order *)
    let np = Array.length p.syms and nq = Array.length q.syms in
    let klp = ref 0.0 and klq = ref 0.0 in
    let i = ref 0 and j = ref 0 in
    while !i < np || !j < nq do
      if !j >= nq || (!i < np && p.syms.(!i) < q.syms.(!j)) then begin
        let pp = p.mass.(!i) in
        if pp <= 0.0 then () else klp := !klp +. kl_term pp (w1 *. pp);
        incr i
      end
      else if !i >= np || q.syms.(!j) < p.syms.(!i) then begin
        let qq = q.mass.(!j) in
        if qq <= 0.0 then () else klq := !klq +. kl_term qq (w2 *. qq);
        incr j
      end
      else begin
        let pp = p.mass.(!i) and qq = q.mass.(!j) in
        let m = entry (w1 *. pp) (w2 *. qq) in
        if pp <= 0.0 then () else klp := !klp +. kl_term pp m;
        if qq <= 0.0 then () else klq := !klq +. kl_term qq m;
        incr i;
        incr j
      end
    done;
    (w1 *. !klp) +. (w2 *. !klq)
  end
  else
    (* when the weights do not sum to 1 the mixture must be renormalized
       for the KL terms to be well defined *)
    let m = normalize (mix2 w1 p w2 q) in
    (w1 *. kl_divergence p m) +. (w2 *. kl_divergence q m)

let equal ?(eps = 1e-9) a b =
  let keys = List.sort_uniq Int.compare (support a @ support b) in
  List.for_all (fun k -> Float.abs (prob a k -. prob b k) <= eps) keys

let pp fmt t =
  Format.fprintf fmt "{";
  Array.iteri
    (fun i sym ->
      if i > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%d:%.4g" sym t.mass.(i))
    t.syms;
  Format.fprintf fmt "}"
