(* Shape validator for the serve-smoke transcript: the responses the
   pipe-mode server (`swap_cli serve`) produced for the fixed request
   script in serve_requests.txt.

   Used by the @serve-smoke alias.  Each expected line is pinned —
   status, error code, id echo, payload shape — so neither the codec,
   the engine dispatch, the error taxonomy, nor the pipe transport can
   drift silently.  The final line repeats request "r2" under a new id
   and must come back byte-identical after the id field: that is the
   result cache's byte-identity contract, checked in CI on every
   build. *)

open Obs.Json_parse

type expect = {
  id : string option;  (** Expected id echo; [None] = JSON null. *)
  req : string option;  (** Expected req echo (absent on rejected requests). *)
  status : string;
  code : string option;  (** Error code when status = "error". *)
  check : string -> json -> unit;  (** Extra payload checks (path, result). *)
}

let no_check _ _ = ()

let num_in path v ~lo ~hi =
  let x = as_num path v in
  if x < lo || x > hi then bad "%s: %g outside [%g, %g]" path x lo hi

let check_interval path v =
  match v with
  | Null -> ()
  | Arr [ Num lo; Num hi ] ->
    if not (lo <= hi) then bad "%s: [%g, %g] is not ordered" path lo hi
  | _ -> bad "%s: expected [lo, hi] or null" path

let check_cutoffs path result =
  let p_t3_low = as_num (path ^ ".p_t3_low") (member path result "p_t3_low") in
  if not (p_t3_low > 0.) then bad "%s.p_t3_low: must be > 0" path;
  check_interval (path ^ ".t2_band") (member path result "t2_band");
  check_interval (path ^ ".p_star_band") (member path result "p_star_band")

let check_sr path result =
  num_in (path ^ ".sr") (member path result "sr") ~lo:0. ~hi:1.

let check_quote path result =
  let p_star = as_num (path ^ ".p_star") (member path result "p_star") in
  if not (p_star > 0.) then bad "%s.p_star: must be > 0" path;
  num_in (path ^ ".sr") (member path result "sr") ~lo:0. ~hi:1.

(* The health payload reports live engine state, so it sits outside the
   byte-identity contract — but the pipe run is sequential and
   deterministic, so the interesting fields are still pinnable: exactly
   the crash counter and the cache section, no crashes, and a cache
   that has both stored entries and served the r13 repeat from them. *)
let check_health path result =
  let keys = List.map fst (as_obj path result) in
  if keys <> [ "internal_errors"; "cache" ] then
    bad "%s: keys [%s], want [internal_errors; cache]" path
      (String.concat "; " keys);
  let internal_errors =
    as_num (path ^ ".internal_errors") (member path result "internal_errors")
  in
  if internal_errors <> 0. then
    bad "%s.internal_errors: %g, want 0" path internal_errors;
  let cache = member path result "cache" in
  let cpath = path ^ ".cache" in
  let cnum key = as_num (cpath ^ "." ^ key) (member cpath cache key) in
  if cnum "entries" < 1. then bad "%s.entries: cache should hold bodies" cpath;
  if cnum "hits" < 1. then
    bad "%s.hits: the r13 repeat must have hit the cache" cpath;
  List.iter
    (fun key ->
      if cnum key < 0. then bad "%s.%s: negative" cpath key)
    [ "capacity"; "misses"; "evictions" ]

let check_sweep n path result =
  let arr key =
    let l = as_arr (path ^ "." ^ key) (member path result key) in
    if List.length l <> n then
      bad "%s.%s: expected %d points, got %d" path key n (List.length l);
    l
  in
  ignore (arr "p_stars");
  List.iteri
    (fun i v -> num_in (Printf.sprintf "%s.srs[%d]" path i) v ~lo:0. ~hi:1.)
    (arr "srs")

let expected =
  let ok ?id ?req check = { id; req; status = "ok"; code = None; check } in
  let err ?id ?req code =
    { id; req; status = "error"; code = Some code; check = no_check }
  in
  [
    ok ~id:"r1" ~req:"cutoffs" check_cutoffs;
    ok ~id:"r2" ~req:"success_rate" check_sr;
    ok ~id:"r3" ~req:"success_rate" check_sr;
    ok ~id:"r4" ~req:"success_rate" check_sr;
    ok ~id:"r5" ~req:"quote" check_quote;
    err ~id:"r6" ~req:"quote" "outside_grid";
    err ~id:"r7" ~req:"quote" "non_positive_spot";
    ok ~id:"r8" ~req:"sweep" (check_sweep 5);
    err "parse_error";
    err ~id:"r10" "invalid_params";
    err ~id:"r11" "parse_error";
    err ~id:"r12" "invalid_params";
    ok ~id:"r13" ~req:"success_rate" check_sr;
    ok ~id:"r14" ~req:"health" check_health;
  ]

let validate_line lineno line (e : expect) =
  let path key = Printf.sprintf "line %d: %s" lineno key in
  let root =
    try parse line with Bad msg -> bad "line %d: %s" lineno msg
  in
  let schema = as_str (path "schema") (member (path "resp") root "schema") in
  if schema <> "htlc-serve/v1" then
    bad "line %d: unknown schema %S" lineno schema;
  (match (member (path "resp") root "id", e.id) with
  | Null, None -> ()
  | Str got, Some want when got = want -> ()
  | _, Some want -> bad "line %d: id was not echoed (want %S)" lineno want
  | _, None -> bad "line %d: expected a null id" lineno);
  (match (member_opt root "req", e.req) with
  | Some (Str got), Some want when got = want -> ()
  | None, None -> ()
  | _, Some want -> bad "line %d: req must echo %S" lineno want
  | Some _, None -> bad "line %d: unexpected req on a rejected request" lineno);
  let status = as_str (path "status") (member (path "resp") root "status") in
  if status <> e.status then
    bad "line %d: status %S, want %S" lineno status e.status;
  match e.code with
  | Some code ->
    let got = as_str (path "error") (member (path "resp") root "error") in
    if got <> code then bad "line %d: error code %S, want %S" lineno got code;
    if as_str (path "message") (member (path "resp") root "message") = "" then
      bad "line %d: empty error message" lineno
  | None ->
    e.check (path "result") (member (path "resp") root "result")

(* The repeat of r2 under id r13 must be byte-identical past the id
   field: the cache returns stored bodies, ids are spliced in. *)
let check_cache_identity lines =
  let body line =
    match String.index_opt line ',' with
    | Some _ ->
      let marker = "\"req\"" in
      let rec find i =
        if i + String.length marker > String.length line then
          bad "no req field in %S" line
        else if String.sub line i (String.length marker) = marker then
          String.sub line i (String.length line - i)
        else find (i + 1)
      in
      find 0
    | None -> bad "malformed response line %S" line
  in
  let nth n = List.nth lines (n - 1) in
  if body (nth 2) <> body (nth 13) then
    bad "line 13: cached repeat of r2 is not byte-identical after the id"

(* `validate_serve --chaos BENCH_JSON`: the chaos-serve gate.  Pins the
   resilience invariants of a fault-injected run — the only acceptable
   degradation under the seeded fault schedule is retries, never wrong
   bytes — plus at least one handler crash absorbed on a live reactor
   shard (answered internal_error, its connection's next answer
   byte-identical) and the hard wall-clock budget that turns a hang
   into a fast, explicit failure. *)
let validate_chaos file =
  let root = parse (In_channel.with_open_text file In_channel.input_all) in
  let schema = as_str "schema" (member "doc" root "schema") in
  if schema <> "htlc-bench/v1" then bad "unknown schema %S" schema;
  let c = member "doc" root "chaos" in
  let num key = as_num ("chaos." ^ key) (member "chaos" c key) in
  let requests = num "requests" in
  if requests < 1. then bad "chaos.requests: empty run proves nothing";
  let success_rate = num "success_rate" in
  if num "succeeded" > requests then bad "chaos.succeeded exceeds requests";
  if success_rate < 0.99 then
    bad "chaos.success_rate: %.4f < 0.99 -- retries failed to absorb the \
         fault schedule"
      success_rate;
  if num "mismatches" <> 0. then
    bad "chaos.mismatches: %g responses were not byte-identical to the \
         reference engine"
      (num "mismatches");
  let absorbed = num "crashes_absorbed" in
  if absorbed < 1. then
    bad "chaos.crashes_absorbed: the injected handler crash was not absorbed \
         on its live connection";
  if num "internal_errors" <> absorbed then
    bad "chaos.internal_errors: %g, but %g crashes were injected"
      (num "internal_errors") absorbed;
  let wall = num "wall_s" and budget = num "budget_s" in
  if wall > budget then
    bad "chaos.wall_s: %.3fs exceeded the %.1fs budget" wall budget;
  List.iter
    (fun key ->
      if num key < 0. then bad "chaos.%s: negative" key)
    [ "retries"; "reconnects"; "failures"; "connection_errors"; "chaos_ops" ];
  Printf.printf
    "%s: chaos ok (%.0f requests, success %.4f, %.0f retries, %.0f handler \
     crashes absorbed)\n"
    file requests success_rate (num "retries") absorbed

let read_transcript file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")

let validate_transcript file =
  let lines = read_transcript file in
  if List.length lines <> List.length expected then
    bad "expected %d responses, got %d (dropped or duplicated lines)"
      (List.length expected) (List.length lines);
  List.iteri
    (fun i (line, e) -> validate_line (i + 1) line e)
    (List.combine lines expected);
  check_cache_identity lines;
  Printf.printf "%s: ok (%d responses)\n" file (List.length lines)

(* `validate_serve --reactor JSON_T BIN_T`: the reactor-smoke gate.
   JSON_T is the full transcript served over the socket reactor in one
   pipelined burst — validated with exactly the pipe-mode pins above.
   BIN_T is the htlc-serve/b1 leg: every script line the request codec
   can decode (the four rejected lines cannot be framed), re-encoded in
   binary on a fresh connection against the same engine.  Each binary
   row except health must be byte-identical to its JSON counterpart —
   one cache, one response assembly, two wire formats.  Health reports
   live cache state that the JSON leg's traffic has advanced, so it is
   shape-pinned instead. *)

(* 1-indexed script rows that survive Request.decode (see
   serve_requests.txt; rows 9-12 are the rejection cases) — keep in
   sync with [expected] above. *)
let binary_row_sources = [ 1; 2; 3; 4; 5; 6; 7; 8; 13; 14 ]

let validate_reactor json_file bin_file =
  validate_transcript json_file;
  let json_lines = read_transcript json_file in
  let bin_lines = read_transcript bin_file in
  if List.length bin_lines <> List.length binary_row_sources then
    bad "expected %d binary rows, got %d (dropped or duplicated frames)"
      (List.length binary_row_sources)
      (List.length bin_lines);
  List.iteri
    (fun i (row, src) ->
      if src = List.length expected then
        (* The health row: same pins as the JSON leg's. *)
        validate_line (i + 1) row (List.nth expected (src - 1))
      else if row <> List.nth json_lines (src - 1) then
        bad "binary row %d: not byte-identical to json row %d" (i + 1) src)
    (List.combine bin_lines binary_row_sources);
  Printf.printf
    "%s: ok (%d binary rows byte-identical to the json leg; health \
     shape-pinned)\n"
    bin_file
    (List.length bin_lines - 1)

(* `validate_serve --telemetry STATS RECORDER`: the telemetry-smoke
   gate.  STATS holds two `stats` responses from one single-shard
   reactor run with sampling forced to 1-in-1 — one served over JSON,
   one over htlc-serve/b1.  Pins the stats document shape (telemetry
   switches, rate window, per-kind x codec latency quantiles, stage
   breakdown, recorder and trace health), that both codecs produced
   traffic, that quantiles are ordered, that each response's three
   finished-request counts agree (rate.total, stages.total.count and
   recorder.pushed: the smoke resets telemetry before any traffic), and
   that the second response observed strictly more finished requests
   than the first (the first stats request itself).  RECORDER is the
   flight-recorder dump: a header line whose counts must be internally
   consistent, then one request record per held slot — ascending seq,
   known kinds/codecs, every record sampled (rate 1), every record
   carrying a total duration. *)

let known_kinds =
  [
    "cutoffs"; "success_rate"; "sweep"; "quote"; "health"; "stats"; "route";
    "error";
  ]

let known_codecs = [ "json"; "binary"; "pipe" ]

let stage_keys =
  [ "decode_ns"; "cache_ns"; "compute_ns"; "encode_ns"; "flush_ns";
    "total_ns" ]

let check_quantiles path obj =
  let num key = as_num (path ^ "." ^ key) (member path obj key) in
  if num "count" < 1. then bad "%s.count: must be >= 1" path;
  let window = num "window" in
  if window < 1. then bad "%s.window: must be >= 1" path;
  if window > num "count" then bad "%s.window: exceeds count" path;
  let qs = List.map num [ "p50_us"; "p90_us"; "p99_us"; "p999_us" ] in
  List.iter (fun q -> if q < 0. then bad "%s: negative quantile" path) qs;
  let rec ordered = function
    | a :: (b :: _ as rest) ->
      if a > b then bad "%s: quantiles are not monotone" path else ordered rest
    | _ -> ()
  in
  ordered qs

let validate_stats_line lineno line ~id =
  let path key = Printf.sprintf "stats line %d: %s" lineno key in
  let root =
    try parse line with Bad msg -> bad "stats line %d: %s" lineno msg
  in
  if as_str (path "schema") (member (path "resp") root "schema")
     <> "htlc-serve/v1"
  then bad "stats line %d: wrong schema" lineno;
  (match member (path "resp") root "id" with
  | Str got when got = id -> ()
  | _ -> bad "stats line %d: id was not echoed (want %S)" lineno id);
  if as_str (path "req") (member (path "resp") root "req") <> "stats" then
    bad "stats line %d: req must echo \"stats\"" lineno;
  if as_str (path "status") (member (path "resp") root "status") <> "ok" then
    bad "stats line %d: status must be ok" lineno;
  let r = member (path "resp") root "result" in
  let sect key = member (path key) r key in
  let num sect_name sect key =
    as_num (path (sect_name ^ "." ^ key)) (member (path sect_name) sect key)
  in
  let telemetry = sect "telemetry" in
  (match member (path "telemetry") telemetry "enabled" with
  | Bool true -> ()
  | _ -> bad "stats line %d: telemetry.enabled must be true" lineno);
  if num "telemetry" telemetry "sample_every" <> 1. then
    bad "stats line %d: the smoke forces sample_every = 1" lineno;
  let rate = sect "rate" in
  let total = num "rate" rate "total" in
  if total < 1. then bad "stats line %d: rate.total must be >= 1" lineno;
  if num "rate" rate "rps" < 0. then bad "stats line %d: negative rps" lineno;
  if num "rate" rate "window_s" <= 0. then
    bad "stats line %d: rate.window_s must be > 0" lineno;
  let latency = as_obj (path "latency") (sect "latency") in
  if latency = [] then bad "stats line %d: latency section is empty" lineno;
  List.iter
    (fun (key, row) ->
      (match String.split_on_char '.' key with
      | [ kind; codec ]
        when List.mem kind known_kinds && List.mem codec known_codecs ->
        ()
      | _ -> bad "stats line %d: unknown latency key %S" lineno key);
      check_quantiles (path ("latency." ^ key)) row)
    latency;
  List.iter
    (fun codec ->
      if
        not
          (List.exists
             (fun (key, _) ->
               String.length key > String.length codec
               && String.sub key
                    (String.length key - String.length codec - 1)
                    (String.length codec + 1)
                  = "." ^ codec)
             latency)
      then bad "stats line %d: no latency entry for the %s codec" lineno codec)
    [ "json"; "binary" ];
  let stages = as_obj (path "stages") (sect "stages") in
  List.iter
    (fun stage ->
      match List.assoc_opt stage stages with
      | Some row ->
        check_quantiles (path ("stages." ^ stage)) row;
        if num ("stages." ^ stage) row "mean_us" < 0. then
          bad "stats line %d: stages.%s.mean_us negative" lineno stage
      | None -> bad "stats line %d: stage %S missing" lineno stage)
    [ "decode"; "compute"; "encode"; "flush"; "total" ];
  let recorder = sect "recorder" in
  let capacity = num "recorder" recorder "capacity" in
  let recorded = num "recorder" recorder "recorded" in
  let pushed = num "recorder" recorder "pushed" in
  if capacity <> 64. then
    bad "stats line %d: the smoke bounds the recorder at 64" lineno;
  if recorded < 1. || recorded > capacity then
    bad "stats line %d: recorder.recorded outside [1, capacity]" lineno;
  if num "recorder" recorder "dropped" <> pushed -. recorded then
    bad "stats line %d: recorder.dropped must equal pushed - recorded" lineno;
  let stage_total = num "stages.total" (List.assoc "total" stages) "count" in
  if total <> stage_total || total <> pushed then
    bad
      "stats line %d: rate.total %g, stages.total.count %g and \
       recorder.pushed %g must be equal"
      lineno total stage_total pushed;
  let trace = sect "trace" in
  if num "trace" trace "spans" < 1. then
    bad "stats line %d: 1-in-1 sampling must have buffered spans" lineno;
  if num "trace" trace "dropped" < 0. then
    bad "stats line %d: trace.dropped negative" lineno;
  total

let validate_recorder file =
  let lines = read_transcript file in
  let header, records =
    match lines with
    | h :: r -> (h, r)
    | [] -> bad "empty recorder dump"
  in
  let root = try parse header with Bad msg -> bad "header: %s" msg in
  let num key = as_num ("header." ^ key) (member "header" root key) in
  if as_str "header.schema" (member "header" root "schema") <> "htlc-obs/v1"
  then bad "header: wrong schema";
  if as_str "header.type" (member "header" root "type") <> "recorder" then
    bad "header: type must be \"recorder\"";
  if as_str "header.reason" (member "header" root "reason") = "" then
    bad "header: empty reason";
  if num "recorded" <> float_of_int (List.length records) then
    bad "header.recorded: %g, but the dump holds %d records" (num "recorded")
      (List.length records);
  if num "recorded" > num "capacity" then bad "header: recorded > capacity";
  if num "dropped" <> num "pushed" -. num "recorded" then
    bad "header.dropped: must equal pushed - recorded";
  let last_seq = ref (-1.) in
  List.iteri
    (fun i line ->
      let n = i + 2 in
      let path key = Printf.sprintf "record line %d: %s" n key in
      let root =
        try parse line with Bad msg -> bad "record line %d: %s" n msg
      in
      let str key = as_str (path key) (member (path key) root key) in
      if str "schema" <> "htlc-obs/v1" then bad "record line %d: schema" n;
      if str "type" <> "request" then bad "record line %d: type" n;
      let seq = as_num (path "seq") (member (path "seq") root "seq") in
      if seq <= !last_seq then
        bad "record line %d: seq %g not ascending" n seq;
      last_seq := seq;
      if not (List.mem (str "kind") known_kinds) then
        bad "record line %d: unknown kind %S" n (str "kind");
      if not (List.mem (str "codec") known_codecs) then
        bad "record line %d: unknown codec %S" n (str "codec");
      if str "status" = "" then bad "record line %d: empty status" n;
      (match member (path "sampled") root "sampled" with
      | Bool true -> ()
      | _ -> bad "record line %d: every record must be sampled at rate 1" n);
      if as_num (path "total_ns") (member (path "total_ns") root "total_ns")
         < 0.
      then bad "record line %d: negative total_ns" n;
      let stages = as_obj (path "stages") (member (path "stages") root "stages") in
      if not (List.mem_assoc "total_ns" stages) then
        bad "record line %d: stages must include total_ns" n;
      List.iter
        (fun (key, v) ->
          if not (List.mem key stage_keys) then
            bad "record line %d: unknown stage %S" n key;
          if as_num (path ("stages." ^ key)) v < 0. then
            bad "record line %d: negative stage %s" n key)
        stages)
    records;
  List.length records

let validate_telemetry stats_file recorder_file =
  let stats_lines = read_transcript stats_file in
  let t1, t2 =
    match stats_lines with
    | [ a; b ] ->
      ( validate_stats_line 1 a ~id:"stats-json",
        validate_stats_line 2 b ~id:"stats-b1" )
    | _ -> bad "expected exactly 2 stats responses, got %d"
             (List.length stats_lines)
  in
  (* The single-shard smoke finalises the first stats request before
     the second is read, so the totals must strictly advance. *)
  if not (t2 > t1) then
    bad "stats line 2: rate.total %g did not advance past line 1's %g" t2 t1;
  Printf.printf "%s: ok (2 stats responses, both codecs)\n" stats_file;
  let records = validate_recorder recorder_file in
  Printf.printf "%s: ok (recorder dump, %d records)\n" recorder_file records

let () =
  let mode =
    match Sys.argv with
    | [| _; "--chaos"; file |] -> `Chaos file
    | [| _; "--reactor"; json_file; bin_file |] -> `Reactor (json_file, bin_file)
    | [| _; "--telemetry"; stats_file; recorder_file |] ->
      `Telemetry (stats_file, recorder_file)
    | [| _; file |] -> `Transcript file
    | _ ->
      prerr_endline
        "usage: validate_serve TRANSCRIPT\n\
        \       validate_serve --chaos BENCH_JSON\n\
        \       validate_serve --reactor JSON_TRANSCRIPT BIN_TRANSCRIPT\n\
        \       validate_serve --telemetry STATS RECORDER";
      exit 2
  in
  match
    match mode with
    | `Chaos file -> validate_chaos file
    | `Transcript file -> validate_transcript file
    | `Reactor (json_file, bin_file) -> validate_reactor json_file bin_file
    | `Telemetry (stats_file, recorder_file) ->
      validate_telemetry stats_file recorder_file
  with
  | () -> ()
  | exception Bad msg ->
    let file =
      match mode with
      | `Chaos f | `Transcript f | `Reactor (f, _) | `Telemetry (f, _) -> f
    in
    Printf.eprintf "%s: INVALID serve %s: %s\n" file
      (match mode with
      | `Chaos _ -> "chaos run"
      | `Transcript _ -> "transcript"
      | `Reactor _ -> "reactor run"
      | `Telemetry _ -> "telemetry run")
      msg;
    exit 1
