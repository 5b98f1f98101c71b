(* Shape validator for the bench baseline JSON (bench --json FILE).

   Used by the @bench-smoke alias so the perf plumbing cannot rot
   silently: it fully parses the emitted file with the shared minimal
   JSON reader (Obs.Json_parse) and checks every field the baseline
   contract promises — that each recorded layer's spread is ordered
   (min <= median <= max) and that the jobs=1 and jobs=N Monte-Carlo
   runs were bit-identical.  A baseline must carry both "layers" and
   "mc".  With [--budget BASELINE] it also gates the file's layers
   against the recorded ones. *)

open Obs.Json_parse

(* A nullable-number member as an option (num_or_null checks shape
   only); NaN — which Obs.Json emits as null — reads back as None. *)
let opt_num path v =
  num_or_null path v;
  match v with
  | Num x when not (Float.is_nan x) -> Some x
  | _ -> None

(* One recorded layer: its unit, the number of runs that measured it,
   and the spread of those runs ([None] throughout when [runs] is 0). *)
type layer = {
  unit_ : string;
  runs : int;
  median : float option;
  max : float option;
}

(* name -> layer for every row under "layers", shape-checking as it
   goes. *)
let layer_rows root =
  List.map
    (fun (name, l) ->
      let path = Printf.sprintf "layers[%S]" name in
      let unit_ = as_str (path ^ ".unit") (member path l "unit") in
      let runs = as_num (path ^ ".runs") (member path l "runs") in
      if runs < 0. || Float.rem runs 1. <> 0. then
        bad "%s.runs must be a non-negative integer (got %g)" path runs;
      let num key = opt_num (path ^ "." ^ key) (member path l key) in
      let lo = num "min" and median = num "median" and hi = num "max" in
      (match (lo, median, hi) with
      | None, None, None when runs = 0. -> ()
      | Some lo, Some mid, Some hi when runs >= 1. ->
        if not (lo <= mid && mid <= hi) then
          bad "%s: min <= median <= max fails (%g, %g, %g)" path lo mid hi
      | _ ->
        bad "%s: min, median and max must be numbers when runs >= 1 and \
             null when runs = 0"
          path);
      (name, { unit_; runs = int_of_float runs; median; max = hi }))
    (as_obj "layers" (member "top level" root "layers"))

let validate root =
  (match root with
  | Obj _ -> ()
  | _ -> bad "top level: expected an object");
  let schema = as_str "schema" (member "top level" root "schema") in
  if schema <> "htlc-bench/v1" then bad "unknown schema %S" schema;
  let jobs = member "top level" root "jobs" in
  let seq = as_num "jobs.sequential" (member "jobs" jobs "sequential") in
  if seq <> 1. then bad "jobs.sequential must be 1 (got %g)" seq;
  let par = as_num "jobs.parallel" (member "jobs" jobs "parallel") in
  if par < 1. then bad "jobs.parallel must be >= 1 (got %g)" par;
  let layers = layer_rows root in
  if layers = [] then bad "layers must be non-empty";
  let mc = member "top level" root "mc" in
  let trials = as_num "mc.trials" (member "mc" mc "trials") in
  if trials < 1. then bad "mc.trials must be >= 1 (got %g)" trials;
  let cpus = as_num "mc.cpus" (member "mc" mc "cpus") in
  if cpus < 1. || Float.rem cpus 1. <> 0. then
    bad "mc.cpus must be a positive integer (got %g)" cpus;
  let wall_1 = as_num "mc.wall_s_jobs1" (member "mc" mc "wall_s_jobs1") in
  let wall_n = as_num "mc.wall_s_jobsN" (member "mc" mc "wall_s_jobsN") in
  if wall_1 < 0. || wall_n < 0. then bad "mc wall clocks must be >= 0";
  (* A speedup compares the two jobs counts: present exactly when they
     differ. *)
  (match member_opt mc "speedup" with
  | Some v when par <> seq -> ignore (as_num "mc.speedup" v)
  | None when par = seq -> ()
  | Some _ ->
    bad "mc.speedup must be absent when jobs.parallel = jobs.sequential"
  | None -> bad "mc.speedup is missing: jobs.parallel is %g" par);
  if not (as_bool "mc.identical_results" (member "mc" mc "identical_results"))
  then bad "mc.identical_results is false: jobs=1 and jobs=N diverged";
  List.length layers

(* --- per-layer budgets ---------------------------------------------------- *)

(* Compare the new file's layers against a recorded baseline, which
   must hold at least [min_baseline_runs] runs of every layer so that
   its max is a spread, not one draw.  Gated: each baseline layer timed
   in ns, us, ms or s whose recorded median is at least the noise
   floor (below it, one short run on a shared host is mostly jitter),
   except transport.gap_us, a difference of two per-request rates.  A
   gated layer fails when the new file lacks it, reads null, or its
   median exceeds [factor] x the recorded max. *)
let noise_floor_ns = 1000.
let min_baseline_runs = 3
let derived_layers = [ "transport.gap_us" ]

let ns_per_unit = function
  | "ns" -> Some 1.
  | "us" -> Some 1e3
  | "ms" -> Some 1e6
  | "s" -> Some 1e9
  | _ -> None

let check_budget ~file ~baseline_file ~factor root base =
  let base_rows = layer_rows base in
  if base_rows = [] then bad "budget baseline %s has no layers" baseline_file;
  List.iter
    (fun (name, b) ->
      if b.runs < min_baseline_runs then
        bad "budget baseline %s: layers[%S] has %d runs, a budget needs %d"
          baseline_file name b.runs min_baseline_runs)
    base_rows;
  let gated =
    List.filter_map
      (fun (name, b) ->
        match (ns_per_unit b.unit_, b.median, b.max) with
        | Some scale, Some median, Some max
          when median *. scale >= noise_floor_ns
               && not (List.mem name derived_layers) ->
          Some (name, b.unit_, max)
        | _ -> None)
      base_rows
  in
  let rows = layer_rows root in
  let failed = ref 0 in
  List.iter
    (fun (name, unit_, base_max) ->
      let fail why =
        incr failed;
        Printf.eprintf "%s: BUDGET EXCEEDED: %s: %s\n" file name why
      in
      match List.assoc_opt name rows with
      | None -> fail "missing: the layer was not measured"
      | Some l when l.unit_ <> unit_ ->
        fail (Printf.sprintf "unit %s, the baseline's is %s" l.unit_ unit_)
      | Some { median = None; _ } ->
        fail "reads null: the layer was not measured"
      | Some { median = Some v; _ } ->
        if v > factor *. base_max then
          fail
            (Printf.sprintf "%g %s is %.2fx the recorded max %g %s (budget %gx)"
               v unit_ (v /. base_max) base_max unit_ factor))
    gated;
  Printf.printf
    "%s: budget vs %s: %d of %d gated layers within %gx the recorded max \
     (gated: timed, recorded median >= %.0f ns, not %s)\n"
    file baseline_file
    (List.length gated - !failed)
    (List.length gated) factor noise_floor_ns
    (String.concat ", " derived_layers);
  if !failed > 0 then exit 1

let usage () =
  prerr_endline
    "usage: validate_bench_json FILE [--budget BASELINE] [--budget-factor F]";
  exit 2

let () =
  let file = ref None
  and budget = ref None
  and factor = ref 2.0 in
  let rec go = function
    | [] -> ()
    | "--budget" :: b :: rest ->
      budget := Some b;
      go rest
    | "--budget-factor" :: f :: rest ->
      (match float_of_string_opt f with
      | Some f when f > 0. -> factor := f
      | _ -> usage ());
      go rest
    | f :: rest when !file = None ->
      file := Some f;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let file = match !file with Some f -> f | None -> usage () in
  let contents = In_channel.with_open_text file In_channel.input_all in
  match
    let root = parse contents in
    let n = validate root in
    Option.iter
      (fun baseline_file ->
        let base =
          parse
            (In_channel.with_open_text baseline_file In_channel.input_all)
        in
        check_budget ~file ~baseline_file ~factor:!factor root base)
      !budget;
    n
  with
  | n -> Printf.printf "%s: ok (%d layers)\n" file n
  | exception Bad msg ->
    Printf.eprintf "%s: INVALID baseline: %s\n" file msg;
    exit 1
