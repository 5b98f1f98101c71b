(* The benchmark's entry point, built and run by run.py:

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]

   Untraced, it runs workload W and prints the end-to-end metrics.
   Traced, it runs the per-layer ladder of all three workloads (W's for
   most of the time), prints one table per workload, writes the spans to
   DIR, and prints the per-layer metrics.  The last line of stdout is
   the JSON result; a run that cannot finish exits nonzero without it. *)

open Perfbench

(* In the order the traced run takes the ladders: serve-hot last, as
   its engines keep their worker domains until the process exits. *)
let workloads = [ "analytic"; "simulate"; "serve-hot" ]

let untraced w ~seed ~seconds ~out =
  match w with
  | "analytic" -> Analytic.run ~seed ~seconds
  | "serve-hot" -> Serve_hot.run ~seed ~seconds ~out
  | _ -> Simulate.run ~seed ~seconds

(* Spans stay in memory until every section has run, then are written
   out once. *)
let traced w ~seed ~seconds ~out =
  let section name = if name = w then 0.6 *. seconds else 0.2 *. seconds in
  let runs =
    List.map
      (fun name ->
        let seconds = section name in
        ( name,
          match name with
          | "analytic" -> Analytic.traced ~seed ~seconds
          | "serve-hot" -> Serve_hot.traced ~seed ~seconds ~out
          | _ -> Simulate.traced ~seed ~seconds ))
      workloads
  in
  List.fold_left
    (fun (acc : Util.result) (name, (sp, (r : Util.result))) ->
      let path = Filename.concat out (Printf.sprintf "spans-%s-%s.jsonl" w name) in
      Spans.dump sp ~path ~workload:name;
      Printf.printf "spans of %s: %d, in %s\n" name (Spans.length sp) path;
      {
        attempted = acc.attempted + r.attempted;
        failed = acc.failed + r.failed;
        metrics = acc.metrics @ r.metrics;
      })
    { attempted = 0; failed = 0; metrics = [] }
    runs

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME analytic | serve-hot | simulate");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--out", Arg.Set_string out, "DIR where span dumps and the socket go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Numerics.Pool.set_jobs 1;
  let seed = !seed and seconds = !seconds and out = !out in
  let r =
    if !trace = 0 then untraced !workload ~seed ~seconds ~out
    else traced !workload ~seed ~seconds ~out
  in
  print_endline (Util.result_json ~correct:(r.failed = 0 && r.attempted > 0) r)
