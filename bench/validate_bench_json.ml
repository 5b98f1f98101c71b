(* Shape validator for the bench baseline JSON (bench --json FILE and
   bench serve --json FILE).

   Used by the @bench-smoke alias so the perf plumbing cannot rot
   silently: it fully parses the emitted file with the shared minimal
   JSON reader (Obs.Json_parse) and checks every field the baseline
   contract promises — that each recorded layer's spread is ordered
   (min <= median <= max), that the jobs=1 and jobs=N Monte-Carlo runs
   were bit-identical, and that a "serve" load-test section (when
   present) reports sane latency quantiles and a clean
   identical-to-direct record.  A `bench serve` baseline carries only
   the "serve" section; the baseline run carries "layers" + "mc".
   With [--budget BASELINE] it also gates the file's layers against
   the recorded ones. *)

open Obs.Json_parse

(* One codec leg under serve.codecs: the per-wire-format measurement of
   the head-to-head (the reactor serves htlc-serve/v1 JSON and
   htlc-serve/b1 binary over the same engine). *)
let validate_codec_leg ~codec leg =
  let path key = Printf.sprintf "serve.codecs.%s.%s" codec key in
  let num key = as_num (path key) (member ("serve.codecs." ^ codec) leg key) in
  if num "throughput_rps" <= 0. then bad "%s must be > 0" (path "throughput_rps");
  let p50 = num "p50_ms" and p99 = num "p99_ms" in
  if p50 < 0. then bad "%s must be >= 0" (path "p50_ms");
  if p99 < p50 then bad "%s must be >= p50_ms" (path "p99_ms");
  let hit_rate = num "cache_hit_rate" in
  if hit_rate < 0. || hit_rate > 1. then
    bad "%s must be in [0, 1] (got %g)" (path "cache_hit_rate") hit_rate;
  if num "mismatches" <> 0. then
    bad "%s must be 0: a response was corrupted" (path "mismatches");
  if num "dropped" <> 0. then
    bad "%s must be 0: a response never arrived" (path "dropped");
  if
    not
      (as_bool
         (path "identical_to_direct")
         (member ("serve.codecs." ^ codec) leg "identical_to_direct"))
  then
    bad "%s is false: a served response diverged from the direct library call"
      (path "identical_to_direct")

(* One stage row under serve.stages: the telemetry stage-clock quantiles
   folded over the measured legs (microseconds, histogram windows). *)
let known_stages =
  [ "decode"; "cache"; "compute"; "encode"; "flush"; "total" ]

let validate_stage ~stage row =
  let path key = Printf.sprintf "serve.stages.%s.%s" stage key in
  if not (List.mem stage known_stages) then
    bad "serve.stages: unknown stage %S" stage;
  let num key = as_num (path key) (member ("serve.stages." ^ stage) row key) in
  if num "count" < 1. then bad "%s must be >= 1" (path "count");
  if num "mean_us" < 0. then bad "%s must be >= 0" (path "mean_us");
  let window = num "window" in
  if window < 1. || window > num "count" then
    bad "%s must be in [1, count]" (path "window");
  let qs =
    List.map (fun k -> (k, num k)) [ "p50_us"; "p90_us"; "p99_us"; "p999_us" ]
  in
  List.iter
    (fun (k, v) -> if v < 0. then bad "%s must be >= 0" (path k))
    qs;
  let rec ordered = function
    | (ka, a) :: ((kb, b) :: _ as rest) ->
      if b < a then bad "%s < %s: quantiles out of order" (path kb) (path ka);
      ordered rest
    | _ -> ()
  in
  ordered qs

(* serve.telemetry: the overhead head-to-head (JSON leg rerun with the
   stage clocks disabled). *)
let validate_telemetry_member tel =
  let num key = as_num ("serve.telemetry." ^ key) (member "serve.telemetry" tel key) in
  let sample_every = num "sample_every" in
  if sample_every < 1. || Float.rem sample_every 1. <> 0. then
    bad "serve.telemetry.sample_every must be a positive integer (got %g)"
      sample_every;
  if num "enabled_rps" <= 0. then bad "serve.telemetry.enabled_rps must be > 0";
  if num "disabled_rps" <= 0. then
    bad "serve.telemetry.disabled_rps must be > 0";
  let frac = num "overhead_frac" in
  if frac >= 1. then
    bad "serve.telemetry.overhead_frac must be < 1 (got %g)" frac

(* The "serve" member records the socket load test (bench serve): client
   totals, latency quantiles, cache hit-rate, the byte-identity check
   against direct in-process calls, and the per-codec breakdown of the
   JSON vs binary head-to-head. *)
let validate_serve_member serve =
  let num key = as_num ("serve." ^ key) (member "serve" serve key) in
  if num "requests" < 1. then bad "serve.requests must be >= 1";
  if num "clients" < 1. then bad "serve.clients must be >= 1";
  if num "reactor_shards" < 1. then bad "serve.reactor_shards must be >= 1";
  if num "pipeline_window" < 1. then bad "serve.pipeline_window must be >= 1";
  if num "throughput_rps" <= 0. then bad "serve.throughput_rps must be > 0";
  let p50 = num "p50_ms" and p99 = num "p99_ms" in
  if p50 < 0. then bad "serve.p50_ms must be >= 0";
  if p99 < p50 then bad "serve.p99_ms must be >= p50_ms";
  let hit_rate = num "cache_hit_rate" in
  if hit_rate < 0. || hit_rate > 1. then
    bad "serve.cache_hit_rate must be in [0, 1] (got %g)" hit_rate;
  if num "mismatches" <> 0. then
    bad "serve.mismatches must be 0: a response was dropped or corrupted";
  if
    not
      (as_bool "serve.identical_to_direct"
         (member "serve" serve "identical_to_direct"))
  then
    bad
      "serve.identical_to_direct is false: a served response diverged from \
       the direct library call";
  let codecs = member "serve" serve "codecs" in
  validate_codec_leg ~codec:"json" (member "serve.codecs" codecs "json");
  validate_codec_leg ~codec:"binary" (member "serve.codecs" codecs "binary");
  (* Pre-telemetry baselines carry neither member; when present both
     must be well-formed and stages must include the total clock. *)
  (match member_opt serve "stages" with
  | None -> ()
  | Some stages ->
    let rows = as_obj "serve.stages" stages in
    if rows = [] then bad "serve.stages is empty";
    if not (List.mem_assoc "total" rows) then
      bad "serve.stages is missing the \"total\" stage";
    List.iter (fun (stage, row) -> validate_stage ~stage row) rows);
  Option.iter validate_telemetry_member (member_opt serve "telemetry")

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

let validate_layers_and_mc root =
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

let validate root =
  (match root with
  | Obj _ -> ()
  | _ -> bad "top level: expected an object");
  let schema = as_str "schema" (member "top level" root "schema") in
  if schema <> "htlc-bench/v1" then bad "unknown schema %S" schema;
  let serve = member_opt root "serve" in
  Option.iter validate_serve_member serve;
  (* A serve-only baseline has no layer record; every other baseline
     must carry the layers + Monte-Carlo determinism record. *)
  match member_opt root "layers" with
  | None when serve <> None -> 0
  | _ -> validate_layers_and_mc root

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
