(* The benchmark entry point: runs one workload and prints every metric by
   name with its unit, then, as the last line of standard output, the
   JSON summary {"correct", "attempted", "failed", "metrics"}.  Exit
   code 0 when every correctness gate held, 1 when one failed, 2 on a
   usage or set-up error.  See README.md. *)

let usage =
  "main.exe --workload fig8-queries|serve-readwrite|offline-prepare --seed N \
   --seconds S --trace 0|1 [--conquer PATH]"

let json_string = Telemetry.Export.json_string

let summary ~trace (o : Metric.outcome) failures =
  let published = if trace then Metric.per_layer else Metric.end_to_end in
  let source = if trace then o.layers else o.e2e in
  let failures = ref failures in
  let fields =
    List.map
      (fun (name, unit_, _) ->
        let value =
          match List.find_opt (fun (m : Metric.t) -> m.name = name) source with
          | Some m when Float.is_finite m.value -> m.value
          | Some _ ->
            failures := Printf.sprintf "metric %s is not finite" name :: !failures;
            0.0
          | None when trace -> 0.0 (* a layer this workload never enters *)
          | None ->
            failures := Printf.sprintf "metric %s was not measured" name :: !failures;
            0.0
        in
        Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (json_string name) value
          (json_string unit_))
      published
  in
  let correct = !failures = [] in
  ( correct,
    List.rev !failures,
    Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
      correct o.attempted o.failed (String.concat "," fields) )

let main () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and conquer = ref "_build/default/bin/conquer_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run, per-layer metrics");
      ("--conquer", Arg.Set_string conquer, "PATH the built conquer CLI");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  Util.install_cleanup ();
  let outcome =
    match !workload with
    | "fig8-queries" -> Fig8.run ~seed ~seconds ~trace
    | "serve-readwrite" -> Serve_mix.run ~conquer:!conquer ~seed ~seconds ~trace
    | "offline-prepare" -> Offline.run ~seed ~seconds ~trace
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n%s\n" w usage;
      exit 2
  in
  if trace then
    Util.Spans.write
      (Printf.sprintf "_perfbench_out/%s-seed%d.spans.jsonl" !workload seed);
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n" !workload seed seconds
    trace;
  List.iter (fun m -> print_endline (Metric.pp_line m)) outcome.report;
  if trace then begin
    print_endline "per-layer (traced run):";
    List.iter (fun m -> print_endline (Metric.pp_line m)) outcome.layers
  end;
  let correct, failures, line = summary ~trace outcome outcome.failures in
  List.iter (fun f -> Printf.printf "FAIL: %s\n" f) failures;
  List.iter (fun f -> Printf.eprintf "perfbench: FAIL: %s\n" f) failures;
  Printf.printf "correct=%b attempted=%d failed=%d\n%s\n%!" correct outcome.attempted
    outcome.failed line;
  exit (if correct then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; dir; sf; inconsistency; seed ] ->
    Util.gen_main dir (float_of_string sf) (int_of_string inconsistency)
      (int_of_string seed)
  | _ -> (
    try main () with
    | Stdlib.Exit -> ()
    | e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      Util.cleanup ();
      exit 2)
