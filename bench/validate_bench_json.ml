(* Shape validator for the bench baseline JSON (bench --json FILE and
   bench serve --json FILE).

   Used by the @bench-smoke alias so the perf plumbing cannot rot
   silently: it fully parses the emitted file with the shared minimal
   JSON reader (Obs.Json_parse) and checks every field the baseline
   contract promises — including that the jobs=1 and jobs=N Monte-Carlo
   runs were bit-identical, that a "serve" load-test section (when
   present) reports sane latency quantiles and a clean
   identical-to-direct record, and that the embedded "obs" metrics
   snapshot carries the htlc-obs/v1 schema.  A `bench serve` baseline
   carries only the "serve" section; the kernel run carries
   "kernels" + "mc". *)

open Obs.Json_parse

(* One exported histogram: nonzero buckets in strictly increasing [le]
   order whose counts add up to [count]. *)
let validate_histogram name h =
  let path key = Printf.sprintf "obs.histograms[%S].%s" name key in
  let count = as_num (path "count") (member (path "") h "count") in
  ignore (as_num (path "sum") (member (path "") h "sum"));
  let buckets = as_arr (path "buckets") (member (path "") h "buckets") in
  let total =
    List.fold_left
      (fun (prev_le, total) b ->
        let le = as_num (path "buckets.le") (member (path "buckets") b "le") in
        let n = as_num (path "buckets.n") (member (path "buckets") b "n") in
        if le <= prev_le then bad "%s: le %g does not increase" (path "buckets") le;
        if n < 1. then bad "%s: bucket le %g has n = %g < 1" (path "buckets") le n;
        (le, total +. n))
      (neg_infinity, 0.) buckets
    |> snd
  in
  if total <> count then
    bad "%s: bucket counts sum to %g, count is %g" (path "buckets") total count

(* The optional "obs" member embeds the Obs.Metrics snapshot taken after
   the Monte-Carlo wall-clock runs; when a baseline carries one it must
   be a well-formed htlc-obs/v1 metrics document with integer counters
   and consistent histograms. *)
let validate_obs_member obs =
  let schema = as_str "obs.schema" (member "obs" obs "schema") in
  if schema <> "htlc-obs/v1" then bad "obs: unknown schema %S" schema;
  let doc_type = as_str "obs.type" (member "obs" obs "type") in
  if doc_type <> "metrics" then bad "obs.type must be \"metrics\" (got %S)" doc_type;
  let counters = as_obj "obs.counters" (member "obs" obs "counters") in
  if counters = [] then bad "obs.counters is empty";
  List.iter
    (fun (name, v) ->
      let c = as_num (Printf.sprintf "obs.counters[%S]" name) v in
      if c < 0. || Float.rem c 1. <> 0. then
        bad "obs.counters[%S] must be a non-negative integer (got %g)" name c)
    counters;
  ignore (as_obj "obs.gauges" (member "obs" obs "gauges"));
  List.iter
    (fun (name, h) -> validate_histogram name h)
    (as_obj "obs.histograms" (member "obs" obs "histograms"))

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

(* An OLS fit this poor means ns_per_run is noise, not a measurement:
   unusable as a budget baseline, and worth flagging loudly. *)
let junk_fit r2 = match r2 with None -> true | Some r2 -> r2 < 0.5

(* name -> (ns_per_run, r_square) for every kernel row, shape-checking
   as it goes. *)
let kernel_rows root =
  let kernels = as_arr "kernels" (member "top level" root "kernels") in
  List.mapi
    (fun i k ->
      let path = Printf.sprintf "kernels[%d]" i in
      let name = as_str (path ^ ".name") (member path k "name") in
      if name = "" then bad "%s.name is empty" path;
      let ns = opt_num (path ^ ".ns_per_run") (member path k "ns_per_run") in
      let r2 = opt_num (path ^ ".r_square") (member path k "r_square") in
      (name, ns, r2))
    kernels

let validate_kernels_and_mc root =
  let jobs = member "top level" root "jobs" in
  let seq = as_num "jobs.sequential" (member "jobs" jobs "sequential") in
  if seq <> 1. then bad "jobs.sequential must be 1 (got %g)" seq;
  let par = as_num "jobs.parallel" (member "jobs" jobs "parallel") in
  if par < 1. then bad "jobs.parallel must be >= 1 (got %g)" par;
  let kernels = kernel_rows root in
  if kernels = [] then bad "kernels must be non-empty";
  List.iter
    (fun (name, _, r2) ->
      if junk_fit r2 then
        Printf.eprintf
          "WARNING: kernel %s: poor timing fit (r_square = %s); ns_per_run \
           is unreliable\n\
           %!"
          name
          (match r2 with None -> "null" | Some r2 -> Printf.sprintf "%.3f" r2))
    kernels;
  let mc = member "top level" root "mc" in
  let trials = as_num "mc.trials" (member "mc" mc "trials") in
  if trials < 1. then bad "mc.trials must be >= 1 (got %g)" trials;
  let wall_1 = as_num "mc.wall_s_jobs1" (member "mc" mc "wall_s_jobs1") in
  let wall_n = as_num "mc.wall_s_jobsN" (member "mc" mc "wall_s_jobsN") in
  if wall_1 < 0. || wall_n < 0. then bad "mc wall clocks must be >= 0";
  ignore (as_num "mc.speedup" (member "mc" mc "speedup"));
  if not (as_bool "mc.identical_results" (member "mc" mc "identical_results"))
  then bad "mc.identical_results is false: jobs=1 and jobs=N diverged";
  List.length kernels

let validate root =
  (match root with
  | Obj _ -> ()
  | _ -> bad "top level: expected an object");
  let schema = as_str "schema" (member "top level" root "schema") in
  if schema <> "htlc-bench/v1" then bad "unknown schema %S" schema;
  let serve = member_opt root "serve" in
  Option.iter validate_serve_member serve;
  (* A serve-only baseline has no kernel table; every other baseline
     must carry the kernels + Monte-Carlo determinism record. *)
  let n_kernels =
    match member_opt root "kernels" with
    | None when serve <> None -> 0
    | _ -> validate_kernels_and_mc root
  in
  (match member_opt root "obs" with
  | Some obs -> validate_obs_member obs
  | None -> ());
  n_kernels

(* --- per-kernel budgets --------------------------------------------------- *)

(* Compare the new file's kernels against a recorded baseline: any
   kernel slower than [factor] x its baseline ns_per_run fails.  Rows
   are skipped — not silently, the count is printed — when either side
   has a junk fit or the baseline sits under the noise floor where
   scheduler jitter swamps the signal. *)
let noise_floor_ns = 500.

let check_budget ~file ~baseline_file ~factor root base =
  let base_rows =
    List.map (fun (name, ns, r2) -> (name, (ns, r2))) (kernel_rows base)
  in
  let checked = ref 0 and skipped = ref 0 and failed = ref 0 in
  List.iter
    (fun (name, ns, r2) ->
      match List.assoc_opt name base_rows with
      | None -> ()  (* new kernel: no recorded budget yet *)
      | Some (base_ns, base_r2) -> (
        match (ns, base_ns) with
        | Some ns, Some base_ns
          when (not (junk_fit r2))
               && (not (junk_fit base_r2))
               && base_ns >= noise_floor_ns ->
          incr checked;
          if ns > factor *. base_ns then begin
            incr failed;
            Printf.eprintf
              "%s: BUDGET EXCEEDED: %s: %.0f ns/run is %.2fx the recorded \
               baseline %.0f ns/run (budget %.1fx)\n"
              file name ns (ns /. base_ns) base_ns factor
          end
        | _ -> incr skipped))
    (kernel_rows root);
  Printf.printf
    "%s: budget vs %s: %d kernels within %.1fx, %d skipped (junk fit or \
     sub-%.0fns baseline)\n"
    file baseline_file !checked factor !skipped noise_floor_ns;
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
  | n -> Printf.printf "%s: ok (%d kernels)\n" file n
  | exception Bad msg ->
    Printf.eprintf "%s: INVALID baseline: %s\n" file msg;
    exit 1
