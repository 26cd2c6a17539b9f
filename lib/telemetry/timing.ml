(* The one timing helper shared by the paper-reproduction harness and
   the CLI's [profile] subcommand: wall-clock over repeated runs,
   summarized as min/median/max (a single median hides the spread that
   distinguishes a stable measurement from a noisy one). *)

type stats = { runs : int; min : float; median : float; max : float }

let time_once f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (Unix.gettimeofday () -. t0, result)

let of_samples samples =
  match samples with
  | [] -> invalid_arg "Timing.of_samples: empty"
  | _ ->
    let sorted = List.sort Float.compare samples in
    let n = List.length sorted in
    {
      runs = n;
      min = List.hd sorted;
      median = List.nth sorted (n / 2);
      max = List.nth sorted (n - 1);
    }

(* [runs] timed executions after [warmup] discarded ones *)
let time_runs ?(warmup = 1) ?(runs = 3) f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  of_samples (List.init (max 1 runs) (fun _ -> fst (time_once f)))

let ms t = t *. 1000.0

let to_string s =
  Printf.sprintf "min %.2fms  median %.2fms  max %.2fms  (%d runs)" (ms s.min)
    (ms s.median) (ms s.max) s.runs
