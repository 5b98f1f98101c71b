(* Shape validator for the observability smoke artefacts produced by
   `swap_cli obs`: a metrics snapshot (htlc-obs/v1 JSON) and a span
   trace (JSONL, one span object per line).

   Used by the @obs-smoke alias: beyond schema shape, it checks that the
   probe workload actually moved the counters it is supposed to move —
   pool chunks ran, Monte-Carlo trials were recorded, the cutoff cache
   saw misses, a protocol run completed, the fault counters exist, and
   the pool's chunk-latency histogram observed samples — and that every
   counter is a non-negative integer, the gauges form an object, and
   every exported histogram is consistent. *)

open Obs.Json_parse

(* One exported histogram: nonzero buckets in strictly increasing [le]
   order whose counts add up to [count]. *)
let validate_histogram name h =
  let path key = Printf.sprintf "histograms[%S].%s" name key in
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

let counter counters name =
  match List.assoc_opt name counters with
  | Some (Num v) -> v
  | Some _ -> bad "counters[%S]: expected a number" name
  | None -> bad "counters: missing %S" name

let validate_metrics root =
  let schema = as_str "schema" (member "top level" root "schema") in
  if schema <> "htlc-obs/v1" then bad "unknown schema %S" schema;
  let doc_type = as_str "type" (member "top level" root "type") in
  if doc_type <> "metrics" then bad "type must be \"metrics\" (got %S)" doc_type;
  let counters = as_obj "counters" (member "top level" root "counters") in
  if counters = [] then bad "counters is empty";
  List.iter
    (fun (name, v) ->
      let c = as_num (Printf.sprintf "counters[%S]" name) v in
      if c < 0. || Float.rem c 1. <> 0. then
        bad "counters[%S] must be a non-negative integer (got %g)" name c)
    counters;
  ignore (as_obj "gauges" (member "top level" root "gauges"));
  let require_positive name =
    if counter counters name < 1. then bad "counter %S did not move" name
  in
  require_positive "pool.tasks_submitted";
  require_positive "pool.chunks_completed";
  require_positive "mc.runs";
  require_positive "mc.trials";
  require_positive "cutoff.cache.misses";
  require_positive "cutoff.cache.hits";
  require_positive "protocol.runs";
  require_positive "chain.txs_submitted";
  (* Fault counters must exist (the schedule decides whether they fire). *)
  List.iter
    (fun name -> ignore (counter counters name))
    [
      "chain.faults.dropped"; "chain.faults.delayed"; "chain.faults.reorged";
      "chain.faults.halted"; "cutoff.cache.evictions"; "protocol.retries";
    ];
  let histograms = as_obj "histograms" (member "top level" root "histograms") in
  List.iter (fun (name, h) -> validate_histogram name h) histograms;
  let latency =
    match List.assoc_opt "pool.chunk_latency_s" histograms with
    | Some h -> h
    | None -> bad "histograms: missing \"pool.chunk_latency_s\""
  in
  if as_num "pool.chunk_latency_s.count" (member "latency" latency "count") < 1.
  then bad "pool.chunk_latency_s observed no samples";
  List.length counters

let validate_trace_line lineno line =
  let root =
    try parse line
    with Bad msg -> bad "line %d: %s" lineno msg
  in
  let path key = Printf.sprintf "line %d: %s" lineno key in
  let schema = as_str (path "schema") (member (path "span") root "schema") in
  if schema <> "htlc-obs/v1" then bad "line %d: unknown schema %S" lineno schema;
  let doc_type = as_str (path "type") (member (path "span") root "type") in
  if doc_type <> "span" then
    bad "line %d: type must be \"span\" (got %S)" lineno doc_type;
  if as_str (path "name") (member (path "span") root "name") = "" then
    bad "line %d: span name is empty" lineno;
  ignore (as_num (path "id") (member (path "span") root "id"));
  (match member (path "span") root "parent" with
  | Null | Num _ -> ()
  | _ -> bad "line %d: parent must be a number or null" lineno);
  ignore (as_num (path "start_ns") (member (path "span") root "start_ns"));
  if as_num (path "dur_ns") (member (path "span") root "dur_ns") < 0. then
    bad "line %d: negative span duration" lineno;
  ignore (as_obj (path "annotations") (member (path "span") root "annotations"))

let validate_trace file =
  let lines =
    In_channel.with_open_text file In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  if lines = [] then bad "trace is empty: no spans were recorded";
  List.iteri (fun i l -> validate_trace_line (i + 1) l) lines;
  List.length lines

let () =
  let metrics_file, trace_file =
    match Sys.argv with
    | [| _; m; t |] -> (m, t)
    | _ ->
      prerr_endline "usage: validate_obs METRICS_JSON TRACE_JSONL";
      exit 2
  in
  match
    let contents =
      In_channel.with_open_text metrics_file In_channel.input_all
    in
    let n_counters = validate_metrics (parse contents) in
    let n_spans = validate_trace trace_file in
    (n_counters, n_spans)
  with
  | n_counters, n_spans ->
    Printf.printf "%s: ok (%d counters); %s: ok (%d spans)\n" metrics_file
      n_counters trace_file n_spans
  | exception Bad msg ->
    Printf.eprintf "INVALID obs artefacts: %s\n" msg;
    exit 1
