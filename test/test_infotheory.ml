(* Tests for distributions, entropy, mutual information, and DCFs. *)

open Infotheory

let check_float = Fixtures.check_float

(* ---- Dist ---- *)

let test_of_assoc () =
  let d = Dist.of_assoc [ (1, 0.25); (2, 0.5); (1, 0.25) ] in
  check_float "accumulated" 0.5 (Dist.prob d 1);
  check_float "direct" 0.5 (Dist.prob d 2);
  check_float "outside support" 0.0 (Dist.prob d 99);
  Alcotest.(check (list int)) "support" [ 1; 2 ] (Dist.support d);
  Alcotest.(check bool) "normalized" true (Dist.is_normalized d);
  match Dist.of_assoc [ (1, -0.1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative mass accepted"

let test_uniform_singleton () =
  let u = Dist.uniform [ 1; 2; 3; 4 ] in
  check_float "uniform prob" 0.25 (Dist.prob u 3);
  let s = Dist.singleton 7 in
  check_float "singleton" 1.0 (Dist.prob s 7);
  check_float "entropy of singleton" 0.0 (Dist.entropy s)

let test_normalize_scale_mix () =
  let d = Dist.of_assoc [ (1, 2.0); (2, 6.0) ] in
  let n = Dist.normalize d in
  check_float "normalized" 0.25 (Dist.prob n 1);
  let s = Dist.scale 0.5 n in
  check_float "scaled mass" 0.5 (Dist.total_mass s);
  let m = Dist.mix [ (0.5, Dist.singleton 1); (0.5, Dist.singleton 2) ] in
  check_float "mixture" 0.5 (Dist.prob m 1);
  Alcotest.(check bool) "mixture normalized" true (Dist.is_normalized m)

let test_entropy () =
  check_float "fair coin = 1 bit" 1.0 (Dist.entropy (Dist.uniform [ 0; 1 ]));
  check_float "uniform 4 = 2 bits" 2.0 (Dist.entropy (Dist.uniform [ 0; 1; 2; 3 ]));
  let biased = Dist.of_assoc [ (0, 0.9); (1, 0.1) ] in
  Alcotest.(check bool) "biased below 1 bit" true (Dist.entropy biased < 1.0);
  Alcotest.(check bool) "entropy nonneg" true (Dist.entropy biased >= 0.0)

let test_kl () =
  let p = Dist.of_assoc [ (0, 0.5); (1, 0.5) ] in
  let q = Dist.of_assoc [ (0, 0.75); (1, 0.25) ] in
  check_float "self divergence" 0.0 (Dist.kl_divergence p p);
  Alcotest.(check bool) "kl positive" true (Dist.kl_divergence p q > 0.0);
  (* containment violation *)
  let r = Dist.singleton 0 in
  (match Dist.kl_divergence p r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "infinite KL accepted");
  (* KL(singleton || p) is fine *)
  check_float "kl singleton" 1.0 (Dist.kl_divergence r p)

let test_js () =
  let p = Dist.singleton 0 and q = Dist.singleton 1 in
  (* maximally different: JS = 1 bit with equal weights *)
  check_float "disjoint JS" 1.0 (Dist.js_divergence p q);
  check_float "identical JS" 0.0 (Dist.js_divergence p p);
  (* symmetry with equal weights *)
  let a = Dist.of_assoc [ (0, 0.3); (1, 0.7) ] in
  let b = Dist.of_assoc [ (0, 0.6); (1, 0.4) ] in
  check_float "symmetric" (Dist.js_divergence a b) (Dist.js_divergence b a);
  (* weighted version is still nonnegative *)
  Alcotest.(check bool) "weighted nonneg" true
    (Dist.js_divergence ~w1:0.25 ~w2:0.75 a b >= 0.0)

(* ---- Mutual information ---- *)

let test_mutual_information_independent () =
  (* two clusters with identical conditionals: I(C;V) = 0 *)
  let cond = Dist.of_assoc [ (0, 0.5); (1, 0.5) ] in
  check_float "independent" 0.0
    (Mutual_info.mutual_information [ (0.5, cond); (0.5, cond) ])

let test_mutual_information_determined () =
  (* clusters with disjoint conditionals: I(C;V) = H(C) = 1 bit *)
  check_float "determined" 1.0
    (Mutual_info.mutual_information
       [ (0.5, Dist.singleton 0); (0.5, Dist.singleton 1) ])

let test_mutual_information_nonneg () =
  let clusters =
    [
      (0.25, Dist.of_assoc [ (0, 0.7); (1, 0.3) ]);
      (0.5, Dist.of_assoc [ (1, 0.2); (2, 0.8) ]);
      (0.25, Dist.of_assoc [ (0, 0.1); (2, 0.9) ]);
    ]
  in
  Alcotest.(check bool) "nonneg" true
    (Mutual_info.mutual_information clusters >= 0.0)

(* ---- DCF ---- *)

let test_dcf_of_symbols () =
  let d = Dcf.of_symbols [ 3; 5; 9; 11 ] in
  check_float "weight" 1.0 d.Dcf.weight;
  check_float "per-value" 0.25 (Dist.prob d.Dcf.dist 5)

let test_dcf_merge_weighted_average () =
  let a = Dcf.make ~weight:1.0 (Dist.singleton 0) in
  let b = Dcf.make ~weight:3.0 (Dist.singleton 1) in
  let m = Dcf.merge a b in
  check_float "merged weight" 4.0 m.Dcf.weight;
  check_float "weighted p0" 0.25 (Dist.prob m.Dcf.dist 0);
  check_float "weighted p1" 0.75 (Dist.prob m.Dcf.dist 1);
  Alcotest.(check bool) "normalized" true (Dist.is_normalized m.Dcf.dist)

let test_dcf_merge_many_associative_weight () =
  let parts = List.init 5 (fun i -> Dcf.of_symbols [ i; i + 10 ]) in
  let m = Dcf.merge_many parts in
  check_float "total weight" 5.0 m.Dcf.weight;
  Alcotest.(check bool) "normalized" true (Dist.is_normalized m.Dcf.dist)

let test_information_loss_matches_direct () =
  (* the JS shortcut must agree with the I(C;V) - I(C';V) difference *)
  let a = Dcf.make ~weight:2.0 (Dist.of_assoc [ (0, 0.5); (1, 0.5) ]) in
  let b = Dcf.make ~weight:1.0 (Dist.of_assoc [ (1, 0.25); (2, 0.75) ]) in
  let rest = [ Dcf.make ~weight:3.0 (Dist.of_assoc [ (2, 0.2); (3, 0.8) ]) ] in
  let total = 6.0 in
  let direct = Mutual_info.merge_loss ~total a b ~rest in
  let shortcut = Dcf.information_loss ~total a b in
  Fixtures.check_float ~eps:1e-9 "shortcut equals direct" direct shortcut

let test_information_loss_zero_for_identical () =
  let a = Dcf.make ~weight:1.0 (Dist.of_assoc [ (0, 0.5); (1, 0.5) ]) in
  let b = Dcf.make ~weight:2.0 (Dist.of_assoc [ (0, 0.5); (1, 0.5) ]) in
  check_float "no loss merging identical" 0.0
    (Dcf.information_loss ~total:3.0 a b)

let test_information_loss_nonneg () =
  let a = Dcf.make ~weight:1.5 (Dist.of_assoc [ (0, 0.9); (1, 0.1) ]) in
  let b = Dcf.make ~weight:2.5 (Dist.of_assoc [ (0, 0.2); (2, 0.8) ]) in
  Alcotest.(check bool) "nonneg" true (Dcf.information_loss ~total:4.0 a b >= 0.0)

let test_scale_drops_zero_mass () =
  let d = Dist.of_assoc [ (1, 0.25); (4, 0.75) ] in
  let z = Dist.scale 0.0 d in
  Alcotest.(check (list int)) "scale 0: empty support" [] (Dist.support z);
  Alcotest.(check int) "scale 0: support size" 0 (Dist.support_size z);
  check_float "scale 0: no mass" 0.0 (Dist.total_mass z);
  (* 1e-300 * 1e-300 underflows to zero; 0.5 * 1e-300 does not *)
  let tiny = Dist.of_assoc [ (2, 1e-300); (3, 0.5) ] in
  Alcotest.(check (list int)) "underflow dropped" [ 3 ] (Dist.support (Dist.scale 1e-300 tiny));
  Alcotest.(check (list int)) "nonzero kept" [ 2; 3 ] (Dist.support (Dist.scale 0.5 tiny))

(* ---- differential: the array-backed Dist against the ordered map ----

   [Old] is the map-backed [Dist]/[Dcf] the array representation
   replaced, kept here as the reference.  Each property requires the
   same support and bit-identical floats (or the same exception), so
   the order of every float operation is pinned down.  Mixture weights
   are non-negative: with negative ones the map kept an entry whose
   contributions cancelled to 0.0, which [Dist.mix] drops. *)

module Old = struct
  module Imap = Map.Make (Int)

  type t = float Imap.t

  let log2 x = Float.log x /. Float.log 2.0

  let of_assoc pairs =
    List.fold_left
      (fun acc (sym, mass) ->
        if mass < 0.0 then invalid_arg "Dist.of_assoc: negative mass"
        else if mass = 0.0 then acc
        else
          Imap.update sym (function None -> Some mass | Some m -> Some (m +. mass)) acc)
      Imap.empty pairs

  let prob t sym = Option.value ~default:0.0 (Imap.find_opt sym t)
  let total_mass t = Imap.fold (fun _ m acc -> acc +. m) t 0.0

  let normalize t =
    let z = total_mass t in
    if z <= 0.0 then invalid_arg "Dist.normalize: zero mass" else Imap.map (fun m -> m /. z) t

  let mix weighted =
    List.fold_left
      (fun acc (w, d) ->
        Imap.fold
          (fun sym m acc ->
            let contribution = w *. m in
            if contribution = 0.0 then acc
            else
              Imap.update sym
                (function None -> Some contribution | Some x -> Some (x +. contribution))
                acc)
          d acc)
      Imap.empty weighted

  let kl_divergence p q =
    Imap.fold
      (fun sym pp acc ->
        if pp <= 0.0 then acc
        else
          let qq = prob q sym in
          if qq <= 0.0 then invalid_arg "Dist.kl_divergence: support of p not contained in q"
          else acc +. (pp *. log2 (pp /. qq)))
      p 0.0

  let js_divergence ~w1 ~w2 p q =
    let m = mix [ (w1, p); (w2, q) ] in
    let m = if Float.abs (w1 +. w2 -. 1.0) <= 1e-12 then m else normalize m in
    (w1 *. kl_divergence p m) +. (w2 *. kl_divergence q m)

  type dcf = { weight : float; dist : t }

  let merge a b =
    let weight = a.weight +. b.weight in
    { weight; dist = mix [ (a.weight /. weight, a.dist); (b.weight /. weight, b.dist) ] }

  let merge_many = function [] -> invalid_arg "empty" | d :: rest -> List.fold_left merge d rest

  let information_loss ~total a b =
    let w = a.weight +. b.weight in
    let pi1 = a.weight /. w and pi2 = b.weight /. w in
    w /. total *. js_divergence ~w1:pi1 ~w2:pi2 a.dist b.dist
end

let bits = Int64.bits_of_float
let entries_new d = List.rev (Dist.fold (fun s m acc -> (s, bits m) :: acc) d [])
let entries_old d = List.map (fun (s, m) -> (s, bits m)) (Old.Imap.bindings d)

let show_entries es =
  String.concat " " (List.map (fun (s, b) -> Printf.sprintf "%d:%h" s (Int64.float_of_bits b)) es)

let same_dist name d o =
  entries_new d = entries_old o
  || QCheck.Test.fail_reportf "%s: got %s, want %s" name (show_entries (entries_new d))
       (show_entries (entries_old o))

let same_float name x y =
  bits x = bits y || QCheck.Test.fail_reportf "%s: got %h, want %h" name x y

(* the same result, or the same exception *)
let same_outcome name f g =
  match (f (), g ()) with
  | x, y -> same_float name x y
  | exception e -> (
    match g () with
    | _ -> QCheck.Test.fail_reportf "%s: raised %s, want a value" name (Printexc.to_string e)
    | exception e' -> e = e' || QCheck.Test.fail_reportf "%s: exceptions differ" name)

open QCheck.Gen

(* masses with repeats, exact zeros and a few extreme magnitudes *)
let mass_gen =
  frequency
    [ (6, float_range 0.0 1.0); (1, return 0.0); (1, oneofl [ 1e-300; 5e-324; 0.1; 0.5; 1e10 ]) ]

let pairs_gen = list_size (int_range 0 12) (pair (int_range 0 20) mass_gen)

(* a normalized distribution, built the same way in both forms (a mass
   that underflows in [normalize] stays as a zero entry in both) *)
let dist_gen =
  map
    (fun pairs ->
      let pairs = (0, 1.0) :: pairs in
      (Dist.normalize (Dist.of_assoc pairs), Old.normalize (Old.of_assoc pairs)))
    pairs_gen

let weight_gen =
  frequency [ (6, float_range 0.0 3.0); (1, return 0.0); (1, oneofl [ 1e-300; 1.0; 0.5 ]) ]

let dcf_gen =
  map2
    (fun (d, o) w -> (Dcf.make ~weight:w d, { Old.weight = w; dist = o }))
    dist_gen (float_range 0.25 8.0)

let prop name ?(count = 500) gen f = QCheck.Test.make ~count ~name (QCheck.make gen) f

let prop_of_assoc =
  prop "of_assoc" pairs_gen (fun pairs -> same_dist "of_assoc" (Dist.of_assoc pairs) (Old.of_assoc pairs))

let prop_mix =
  prop "mix" (list_size (int_range 0 5) (pair weight_gen dist_gen)) (fun ws ->
      same_dist "mix"
        (Dist.mix (List.map (fun (w, (d, _)) -> (w, d)) ws))
        (Old.mix (List.map (fun (w, (_, o)) -> (w, o)) ws)))

let prop_kl =
  prop "kl_divergence" (triple dist_gen dist_gen (float_range 0.0 1.0))
    (fun ((p, po), (q, qo), w) ->
      (* q' covers p's support unless w = 0; q alone usually does not *)
      let q' = Dist.mix [ (w, p); (1.0 -. w, q) ] and qo' = Old.mix [ (w, po); (1.0 -. w, qo) ] in
      same_outcome "kl p q'" (fun () -> Dist.kl_divergence p q') (fun () -> Old.kl_divergence po qo')
      && same_outcome "kl p q" (fun () -> Dist.kl_divergence p q) (fun () -> Old.kl_divergence po qo))

let prop_js =
  prop "js_divergence, unequal weights"
    (quad dist_gen dist_gen (float_range 0.0 1.0) (float_range 0.0 1.5))
    (fun ((p, po), (q, qo), w1, w2) ->
      same_outcome "w2 = 1 - w1"
        (fun () -> Dist.js_divergence ~w1 ~w2:(1.0 -. w1) p q)
        (fun () -> Old.js_divergence ~w1 ~w2:(1.0 -. w1) po qo)
      && same_outcome "free weights"
           (fun () -> Dist.js_divergence ~w1 ~w2 p q)
           (fun () -> Old.js_divergence ~w1 ~w2 po qo))

let prop_merge_many =
  prop "Dcf.merge_many" (list_size (int_range 1 8) dcf_gen) (fun ds ->
      let m = Dcf.merge_many (List.map fst ds) and o = Old.merge_many (List.map snd ds) in
      same_float "weight" m.Dcf.weight o.Old.weight && same_dist "dist" m.Dcf.dist o.Old.dist)

let prop_information_loss =
  prop "Dcf.information_loss" (triple dcf_gen dcf_gen (float_range 1.0 100.0))
    (fun ((a, ao), (b, bo), total) ->
      same_outcome "loss"
        (fun () -> Dcf.information_loss ~total a b)
        (fun () -> Old.information_loss ~total ao bo))

(* ---- differential: Prob.Assign.run against the map-based pipeline ---- *)

(* The old matrix: symbols keyed by (attribute position, value) in a
   hashtable over [Value.hash], numbered in first-seen order, row-major;
   a row's distribution is [1/m] on each of its symbols. *)
module Old_key = struct
  type t = int * Dirty.Value.t

  let equal (a1, v1) (a2, v2) = a1 = a2 && Dirty.Value.equal v1 v2
  let hash (a, v) = (a * 31) + Dirty.Value.hash v
end

module Old_ktbl = Hashtbl.Make (Old_key)

let old_row_dcfs rel attrs =
  let schema = Dirty.Relation.schema rel in
  let indices = List.map (Dirty.Schema.index_of schema) attrs in
  let tbl = Old_ktbl.create 64 in
  let intern key =
    match Old_ktbl.find_opt tbl key with
    | Some s -> s
    | None ->
      let s = Old_ktbl.length tbl in
      Old_ktbl.add tbl key s;
      s
  in
  Array.map
    (fun row ->
      let syms = List.mapi (fun attr j -> intern (attr, row.(j))) indices in
      let m = float_of_int (List.length syms) in
      { Old.weight = 1.0; dist = Old.of_assoc (List.map (fun s -> (s, 1.0 /. m)) syms) })
    (Dirty.Relation.rows rel)

(* Figure 5 over the old structures, as [Prob.Assign.run] computes it *)
let old_assign rel attrs clustering =
  let dcfs = old_row_dcfs rel attrs in
  let n = Array.length dcfs in
  let total = float_of_int n in
  let distances = Array.make n 0.0 and probabilities = Array.make n 1.0 in
  Dirty.Cluster.iter
    (fun _ members ->
      match members with
      | [] | [ _ ] -> ()
      | _ ->
        let rep = Old.merge_many (List.map (fun r -> dcfs.(r)) members) in
        let card = List.length members in
        List.iter (fun r -> distances.(r) <- Old.information_loss ~total dcfs.(r) rep) members;
        let sum = List.fold_left (fun acc r -> acc +. distances.(r)) 0.0 members in
        List.iter
          (fun r ->
            probabilities.(r) <-
              (if sum <= 0.0 then 1.0 /. float_of_int card
               else (1.0 -. (distances.(r) /. sum)) /. float_of_int (card - 1)))
          members)
    clustering;
  (distances, probabilities)

(* Int 2 and Float 2.0, 0.0 and -0.0, and NaN and NaN are each one value
   under [Value.equal], so each pair must share a symbol *)
let cell_gen : Dirty.Value.t QCheck.Gen.t =
  oneof
    [
      map (fun i -> Dirty.Value.Int i) (int_range 0 3);
      oneofl Dirty.Value.[ Float 2.0; Float 0.5; Float 0.0; Float (-0.0); Float Float.nan; Float 1e300 ];
      oneofl Dirty.Value.[ String "a"; String "b"; String ""; String "2" ];
      return Dirty.Value.Null;
      oneofl Dirty.Value.[ Date 0; Date 9000; Bool true ];
    ]

let clustered_gen =
  int_range 1 4 >>= fun arity ->
  int_range 1 30 >>= fun n ->
  int_range 1 8 >>= fun k ->
  map2
    (fun rows ids -> (arity, Array.of_list rows, Array.of_list ids))
    (list_repeat n (array_repeat arity cell_gen))
    (list_repeat n (int_range 0 (k - 1)))

let show_clustered (arity, rows, ids) =
  Printf.sprintf "arity %d\n%s" arity
    (String.concat "\n"
       (Array.to_list
          (Array.mapi
             (fun i row ->
               Printf.sprintf "c%d: %s" ids.(i)
                 (String.concat ", " (Array.to_list (Array.map Dirty.Value.to_sql row))))
             rows)))

let prop_assign =
  QCheck.Test.make ~count:300 ~name:"Prob.Assign.run"
    (QCheck.make ~print:show_clustered clustered_gen)
    (fun (arity, rows, ids) ->
      let names = List.init arity (Printf.sprintf "a%d") in
      let schema = Dirty.Schema.make (List.map (fun a -> (a, Dirty.Value.TString)) names) in
      let rel = Dirty.Relation.of_array schema rows in
      let clustering =
        Dirty.Cluster.of_assignment ~size:(Array.length rows) (fun i -> Dirty.Value.Int ids.(i))
      in
      let r = Prob.Assign.run ~attrs:names rel clustering in
      let distances, probabilities = old_assign rel names clustering in
      let same name got want =
        Array.for_all2 (fun x y -> bits x = bits y) got want
        || QCheck.Test.fail_reportf "%s differ" name
      in
      same "distances" r.distances distances && same "probabilities" r.probabilities probabilities)

let () =
  Alcotest.run "infotheory"
    [
      ( "dist",
        [
          Alcotest.test_case "of_assoc" `Quick test_of_assoc;
          Alcotest.test_case "uniform/singleton" `Quick test_uniform_singleton;
          Alcotest.test_case "normalize/scale/mix" `Quick
            test_normalize_scale_mix;
          Alcotest.test_case "entropy" `Quick test_entropy;
          Alcotest.test_case "KL divergence" `Quick test_kl;
          Alcotest.test_case "JS divergence" `Quick test_js;
          Alcotest.test_case "scale drops zero mass" `Quick test_scale_drops_zero_mass;
        ] );
      ( "mutual information",
        [
          Alcotest.test_case "independent" `Quick
            test_mutual_information_independent;
          Alcotest.test_case "determined" `Quick
            test_mutual_information_determined;
          Alcotest.test_case "nonnegative" `Quick test_mutual_information_nonneg;
        ] );
      ( "dcf",
        [
          Alcotest.test_case "of_symbols" `Quick test_dcf_of_symbols;
          Alcotest.test_case "weighted merge" `Quick
            test_dcf_merge_weighted_average;
          Alcotest.test_case "merge_many" `Quick
            test_dcf_merge_many_associative_weight;
          Alcotest.test_case "loss = direct MI difference" `Quick
            test_information_loss_matches_direct;
          Alcotest.test_case "identical merge is free" `Quick
            test_information_loss_zero_for_identical;
          Alcotest.test_case "loss nonnegative" `Quick
            test_information_loss_nonneg;
        ] );
      ( "differential",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_of_assoc;
            prop_mix;
            prop_kl;
            prop_js;
            prop_merge_many;
            prop_information_loss;
            prop_assign;
          ] );
    ]
