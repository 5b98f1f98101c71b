(* Benchmark harness.

   [bench --json FILE [--mc-trials N] [--jobs N] [--smoke] LADDER...]
   writes the recorded perf baseline (schema htlc-bench/v1):

   - "layers": the cost of each layer with its run-to-run spread, read
     from traced perfbench runs (perfbench/bench.exe --trace 1), one
     stdout file per run passed as LADDER: per layer its unit, the
     number of runs that measured it, and the min, median and max;
   - "mc": the wall clock of a Monte-Carlo run at jobs=1 and jobs=N,
     and whether the two results were bit-identical (the determinism
     contract, recorded on every baseline).

   [--smoke] is for tiny trial counts, where spawn overhead may leave
   the parallel run slower than the sequential one.  [bench serve] is
   the socket load generator below. *)

let p = Swap.Params.defaults

(* --- the traced ladder ---------------------------------------------------- *)

(* The metrics of one traced perfbench run: its stdout ends with the
   result line {"correct": ..., "metrics": {NAME: {"value", "unit"}}},
   as (name, unit, value) with a null value read as [None].  A run that
   reports itself incorrect measured nothing worth recording. *)
let ladder_metrics file =
  let open Obs.Json_parse in
  let root =
    match
      In_channel.with_open_text file In_channel.input_lines
      |> List.filter (fun l -> String.trim l <> "")
      |> List.rev
    with
    | last :: _ -> parse last
    | [] -> bad "%s: empty, no result line" file
  in
  if not (as_bool (file ^ ": correct") (member file root "correct")) then
    bad "%s: the run reports correct = false" file;
  List.map
    (fun (name, m) ->
      let path = Printf.sprintf "%s: metrics[%S]" file name in
      let unit_ = as_str (path ^ ".unit") (member path m "unit") in
      match member path m "value" with
      | Num x -> (name, unit_, Some x)
      | Null -> (name, unit_, None)
      | _ -> bad "%s.value: expected a number or null" path)
    (as_obj (file ^ ": metrics") (member file root "metrics"))

type layer = {
  name : string;
  unit_ : string;
  runs : int;  (** Runs that measured the layer (a null is no measurement). *)
  min : float;  (** NaN, written null, when [runs] is 0. *)
  median : float;
  max : float;
}

(* One row per layer, in the order the runs first report them; with an
   even run count the median is the lower of the two middle values. *)
let summarise runs =
  let all = List.concat runs in
  let names =
    List.fold_left
      (fun acc (name, _, _) -> if List.mem name acc then acc else name :: acc)
      [] all
    |> List.rev
  in
  List.map
    (fun name ->
      let rows = List.filter (fun (n, _, _) -> n = name) all in
      let unit_ =
        match List.sort_uniq compare (List.map (fun (_, u, _) -> u) rows) with
        | [ u ] -> u
        | us ->
          Obs.Json_parse.bad "layer %s: the runs disagree on its unit (%s)"
            name (String.concat ", " us)
      in
      let v =
        List.filter_map (fun (_, _, v) -> v) rows
        |> List.sort Float.compare |> Array.of_list
      in
      let n = Array.length v in
      let at i = if n = 0 then nan else v.(i) in
      {
        name;
        unit_;
        runs = n;
        min = at 0;
        median = at ((n - 1) / 2);
        max = at (n - 1);
      })
    names

(* --- machine-readable baseline ------------------------------------------ *)

let time_wall f =
  (* Best of three wall-clock runs (the pool makes CPU time the wrong
     measure for the parallel leg). *)
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to 3 do
    let t0 = Obs.Monotonic.now_ns () in
    let r = f () in
    let dt = Obs.Monotonic.elapsed_s ~since_ns:t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (!best, Option.get !result)

let json_num x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

(* [speedup] compares the two legs, so it is written only when they ran
   at different jobs counts; [cpus] says what the host offered. *)
let write_baseline ~file ~layers ~jobs_n ~cpus ~trials ~wall_1 ~wall_n
    ~identical =
  let oc = open_out file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"htlc-bench/v1\",\n";
  Printf.fprintf oc "  \"jobs\": { \"sequential\": 1, \"parallel\": %d },\n"
    jobs_n;
  Printf.fprintf oc "  \"layers\": {\n";
  let n_layers = List.length layers in
  List.iteri
    (fun i l ->
      Printf.fprintf oc
        "    %s: { \"unit\": %s, \"runs\": %d, \"min\": %s, \"median\": %s, \
         \"max\": %s }%s\n"
        (Obs.Json.str l.name) (Obs.Json.str l.unit_) l.runs (json_num l.min)
        (json_num l.median) (json_num l.max)
        (if i = n_layers - 1 then "" else ","))
    layers;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"mc\": {\n";
  Printf.fprintf oc "    \"trials\": %d,\n" trials;
  Printf.fprintf oc "    \"cpus\": %d,\n" cpus;
  Printf.fprintf oc "    \"wall_s_jobs1\": %s,\n" (json_num wall_1);
  Printf.fprintf oc "    \"wall_s_jobsN\": %s,\n" (json_num wall_n);
  if jobs_n > 1 then
    Printf.fprintf oc "    \"speedup\": %s,\n" (json_num (wall_1 /. wall_n));
  Printf.fprintf oc "    \"identical_results\": %b\n" identical;
  Printf.fprintf oc "  }\n";
  Printf.fprintf oc "}\n";
  close_out oc

let mc_wall_clock ~trials ~jobs_n =
  let policy = Swap.Agent.rational p ~p_star:2. in
  let wall_1, r1 =
    time_wall (fun () ->
        Swap.Montecarlo.run ~trials ~jobs:1 p ~p_star:2. ~policy)
  in
  let wall_n, rn =
    time_wall (fun () ->
        Swap.Montecarlo.run ~trials ~jobs:jobs_n p ~p_star:2. ~policy)
  in
  (wall_1, wall_n, r1 = rn)

(* --- serve load generator ----------------------------------------------- *)

(* `bench serve`: drive the reactor server head-to-head over both wire
   codecs — newline-delimited htlc-serve/v1 JSON and length-prefixed
   htlc-serve/b1 binary — with concurrent pipelining client domains,
   and byte-compare every response body against a direct-call
   reference: an identically configured engine answering the same
   typed requests via [Engine.handle_decoded].  Any byte
   difference is a mismatch; a missing response is a drop.  Both legs
   are reported in the htlc-bench JSON under "codecs". *)

(* Clients send [pipeline_window] requests per write and then read the
   window's responses back — the reactor's pipelining path, and the
   only way a 1-core box clears the syscall-per-request ceiling. *)
let pipeline_window = 64

(* A deterministic hot/cold corpus: [distinct] hot questions (all four
   request kinds, parameter values derived from the index) carry ~90%
   of traffic; the remaining ~10% are one-off cold quote lookups keyed
   by the request index, so the cache sees misses and eviction churn
   mid-run, not just a warm loop.  Index mixing is a fixed odd
   multiplier (Knuth), not [Random] — the corpus is reproducible. *)
let serve_corpus ~n ~distinct =
  let hot i =
    let open Serve.Request in
    let f = float_of_int (i / 4) in
    match i mod 4 with
    | 0 -> Cutoffs { params = p; p_star = 1.8 +. (0.02 *. f) }
    | 1 ->
      Success_rate
        {
          params = p;
          p_star = 1.8 +. (0.02 *. f);
          q = (if i mod 8 = 1 then 0.25 else 0.);
        }
    | 2 -> Quote { mu = 0.; sigma = 0.05 +. (0.005 *. f); spot = 2. }
    | _ ->
      Sweep
        {
          params = p;
          q = 0.;
          spec = { lo = 1.6 +. (0.01 *. f); hi = 2.4; n = 9 };
        }
  in
  Array.init n (fun j ->
      let u = j * 0x9E3779B1 land 0x3FFFFFFF in
      let body =
        if u mod 10 = 0 then
          (* Cold: a spot nobody asks about twice (table lookup, so the
             reference double-compute stays cheap). *)
          Serve.Request.Quote
            { mu = 0.; sigma = 0.08; spot = 2. +. (1e-6 *. float_of_int j) }
        else hot (u mod distinct)
      in
      { Serve.Request.id = Some (Printf.sprintf "q%d" j); body })

type client_result = {
  latencies_ms : float array;  (** One sample per answered request. *)
  answered : int;
  mismatched : int;
}

(* A wire codec as a load client drives it: [preamble] opens every
   connection, [write oc j] sends request [j], [read ic] returns the next
   response body ([None] at end of stream).  A b1 response frame carries
   exactly the JSON response line's bytes, so both codecs compare
   against the same [expected] array. *)
type codec = {
  name : string;
  preamble : string;
  write : out_channel -> int -> unit;
  read : in_channel -> string option;
}

(* Latency per pipelined request is measured from its window's send
   instant — what a batching caller actually waits. *)
let run_client ~path ~codec ~(expected : string array) ~lo ~hi =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  let latencies_ms = Array.make (hi - lo) nan in
  let answered = ref 0 and mismatched = ref 0 in
  (try
     output_string oc codec.preamble;
     let w0 = ref lo in
     while !w0 < hi do
       let w1 = min hi (!w0 + pipeline_window) in
       let t0 = Obs.Monotonic.now_ns () in
       for j = !w0 to w1 - 1 do
         codec.write oc j
       done;
       flush oc;
       for j = !w0 to w1 - 1 do
         match codec.read ic with
         | None -> raise End_of_file
         | Some body ->
           latencies_ms.(!answered) <-
             Obs.Monotonic.elapsed_s ~since_ns:t0 *. 1e3;
           incr answered;
           if not (String.equal body expected.(j)) then incr mismatched
       done;
       w0 := w1
     done
   with End_of_file | Sys_error _ | Failure _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  {
    latencies_ms = Array.sub latencies_ms 0 !answered;
    answered = !answered;
    mismatched = !mismatched;
  }

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1))))

(* --- chaos phase ---------------------------------------------------------- *)

(* `bench serve --chaos`: re-run the load through fault-injected
   transports (Serve.Chaos wrapping Serve.Client dialers) while one
   request on its own clean connection crashes its handler mid-run.
   Every response that does arrive must still be byte-identical to the
   reference engine; the gate is the "chaos" JSON section
   validate_serve pins in CI. *)

type chaos_summary = {
  c_seed : int;
  c_requests : int;
  c_succeeded : int;
  c_retries : int;
  c_reconnects : int;
  c_failures : int;
  c_mismatches : int;
  c_crashes_absorbed : int;
  c_internal_errors : int;
  c_connection_errors : int;
  c_ops : int;
  c_wall_s : float;
  c_budget_s : float;
}

(* The hang gate: a watchdog domain that kills the whole bench (exit 3)
   if the chaos phase outlives its wall budget — a lost response or a
   deadlocked shutdown can then never masquerade as a slow pass. *)
let with_watchdog ~budget_s f =
  let finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let t0 = Obs.Monotonic.now_ns () in
        let rec watch () =
          if Atomic.get finished then ()
          else if Obs.Monotonic.elapsed_s ~since_ns:t0 > budget_s then begin
            Printf.eprintf
              "bench serve --chaos: wall budget %.1fs exceeded -- aborting \
               (lost response or hung shutdown?)\n\
               %!"
              budget_s;
            exit 3
          end
          else begin
            Unix.sleepf 0.05;
            watch ()
          end
        in
        watch ())
  in
  let r = f () in
  Atomic.set finished true;
  Domain.join d;
  r

let run_chaos_client ~client ~requests ~(expected : string array) ~lo ~hi =
  let succeeded = ref 0 and mismatched = ref 0 and failed = ref 0 in
  for j = lo to hi - 1 do
    match Serve.Client.call client requests.(j) with
    | Ok resp ->
      incr succeeded;
      if not (String.equal resp expected.(j)) then incr mismatched
    | Error _ -> incr failed
  done;
  Serve.Client.close client;
  (!succeeded, !mismatched, !failed, Serve.Client.stats client)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Crash one handler on a live reactor shard: arm a crash for a fresh
   id and send that request on its own clean connection.  The crash is
   absorbed when its answer is the structured internal_error echoing
   the id and kind, and the same connection's next request is answered
   byte-identically to the reference. *)
let crash_on_live_shard engine ~path ~(probe : Serve.Request.t) ~expected =
  let id = "chaos-crash" in
  Serve.Engine.inject_crash engine ~id;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  let ask req =
    output_string oc (Serve.Request.encode req);
    output_char oc '\n';
    flush oc;
    input_line ic
  in
  let absorbed =
    match
      let crashed = ask { probe with Serve.Request.id = Some id } in
      (crashed, ask probe)
    with
    | crashed, after ->
      contains crashed "\"error\":\"internal_error\""
      && contains crashed
           (Printf.sprintf "\"id\":%S,\"req\":%S" id
              (Serve.Request.kind probe))
      && String.equal after expected
    | exception (End_of_file | Sys_error _) -> false
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  if not absorbed then
    prerr_endline "bench serve --chaos: the injected handler crash was not \
                   absorbed on its connection";
  absorbed

let chaos_phase ~seed ~budget_s ~corpus ~expected ~probe ~probe_expected
    ~clients ~make_engine =
  let n = Array.length corpus in
  Printf.printf
    "bench serve chaos: seed %d, %d requests, %d clients, budget %.1fs\n%!"
    seed n clients budget_s;
  let conn_errors_before =
    Obs.Metrics.counter_value (Obs.Metrics.counter "serve.connection_errors")
  and ops_before =
    Obs.Metrics.counter_value (Obs.Metrics.counter "serve.chaos.ops")
  in
  with_watchdog ~budget_s (fun () ->
      let engine = make_engine () in
      let path =
        Printf.sprintf "/tmp/htlc-serve-chaos-%d.sock" (Unix.getpid ())
      in
      let server = Serve.Server.listen engine ~path () in
      let base_plan = Serve.Chaos.plan ~seed () in
      let bounds c = (c * n / clients, (c + 1) * n / clients) in
      let t0 = Obs.Monotonic.now_ns () in
      let domains =
        Array.init clients (fun c ->
            Domain.spawn (fun () ->
                let lo, hi = bounds c in
                let plan = Serve.Chaos.for_stream base_plan ~stream:c in
                let dialer =
                  Serve.Chaos.wrap plan (Serve.Client.socket_dialer ~path)
                in
                let client =
                  Serve.Client.create ~dialer ~max_attempts:8
                    ~base_backoff_s:2e-4 ~max_backoff_s:0.02
                    ~seed:(seed lxor ((c + 1) * 0x9E3779B9)) ()
                in
                run_chaos_client ~client ~requests:corpus ~expected ~lo ~hi))
      in
      let absorbed =
        crash_on_live_shard engine ~path ~probe ~expected:probe_expected
      in
      let results = Array.map Domain.join domains in
      let wall_s = Obs.Monotonic.elapsed_s ~since_ns:t0 in
      Serve.Server.shutdown server;
      let sum f = Array.fold_left (fun a r -> a + f r) 0 results in
      let s = Serve.Engine.stats engine in
      {
        c_seed = seed;
        c_requests = n;
        c_succeeded = sum (fun (ok, _, _, _) -> ok);
        c_retries =
          sum (fun (_, _, _, cs) -> cs.Serve.Client.retries);
        c_reconnects =
          sum (fun (_, _, _, cs) -> cs.Serve.Client.reconnects);
        c_failures = sum (fun (_, _, fail, _) -> fail);
        c_mismatches = sum (fun (_, mis, _, _) -> mis);
        c_crashes_absorbed = (if absorbed then 1 else 0);
        c_internal_errors = s.Serve.Engine.internal_errors;
        c_connection_errors =
          Obs.Metrics.counter_value
            (Obs.Metrics.counter "serve.connection_errors")
          - conn_errors_before;
        c_ops =
          Obs.Metrics.counter_value (Obs.Metrics.counter "serve.chaos.ops")
          - ops_before;
        c_wall_s = wall_s;
        c_budget_s = budget_s;
      })

(* One measured leg of the head-to-head: a fresh engine + reactor
   server driven entirely over a single wire codec. *)
type leg = {
  g_codec : string;
  g_throughput_rps : float;
  g_p50_ms : float;
  g_p99_ms : float;
  g_cache_hit_rate : float;
  g_mismatches : int;
  g_dropped : int;
  g_identical : bool;
}

let write_leg oc ~last l =
  Printf.fprintf oc "      \"%s\": {\n" l.g_codec;
  Printf.fprintf oc "        \"throughput_rps\": %s,\n"
    (json_num l.g_throughput_rps);
  Printf.fprintf oc "        \"p50_ms\": %s,\n" (json_num l.g_p50_ms);
  Printf.fprintf oc "        \"p99_ms\": %s,\n" (json_num l.g_p99_ms);
  Printf.fprintf oc "        \"cache_hit_rate\": %s,\n"
    (json_num l.g_cache_hit_rate);
  Printf.fprintf oc "        \"mismatches\": %d,\n" l.g_mismatches;
  Printf.fprintf oc "        \"dropped\": %d,\n" l.g_dropped;
  Printf.fprintf oc "        \"identical_to_direct\": %b\n" l.g_identical;
  Printf.fprintf oc "      }%s\n" (if last then "" else ",")

(* Telemetry-overhead head-to-head: the JSON leg rerun with the stage
   clocks compiled out (Serve.Telemetry disabled), against the
   telemetry-on measurement of the same corpus. *)
type telemetry_overhead = {
  t_sample_every : int;
  t_enabled_rps : float;
  t_disabled_rps : float;
  t_overhead_frac : float; (* (disabled - enabled) / disabled *)
}

let write_stage oc ~last (s : Serve.Telemetry.stage_stat) =
  let us x = json_num (x *. 1e6) in
  Printf.fprintf oc "      \"%s\": {\n" s.st_stage;
  Printf.fprintf oc "        \"count\": %d,\n" s.st_count;
  Printf.fprintf oc "        \"mean_us\": %s,\n" (us s.st_mean_s);
  Printf.fprintf oc "        \"window\": %d,\n" s.st_window;
  Printf.fprintf oc "        \"p50_us\": %s,\n" (us s.st_p50_s);
  Printf.fprintf oc "        \"p90_us\": %s,\n" (us s.st_p90_s);
  Printf.fprintf oc "        \"p99_us\": %s,\n" (us s.st_p99_s);
  Printf.fprintf oc "        \"p999_us\": %s\n" (us s.st_p999_s);
  Printf.fprintf oc "      }%s\n" (if last then "" else ",")

(* Top-level serve fields keep the historical shape (mirroring the
   JSON-codec leg, the wire format every prior baseline measured);
   "codecs" carries the per-codec breakdown, "stages" the telemetry
   stage-clock quantiles, "telemetry" the overhead head-to-head. *)
let write_serve_baseline ?chaos ~file ~requests ~clients ~shards ~json_leg
    ~binary_leg ~stages ~telemetry () =
  let identical = json_leg.g_identical && binary_leg.g_identical in
  let oc = open_out file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"htlc-bench/v1\",\n";
  Printf.fprintf oc "  \"serve\": {\n";
  Printf.fprintf oc "    \"requests\": %d,\n" requests;
  Printf.fprintf oc "    \"clients\": %d,\n" clients;
  Printf.fprintf oc "    \"reactor_shards\": %d,\n" shards;
  Printf.fprintf oc "    \"pipeline_window\": %d,\n" pipeline_window;
  Printf.fprintf oc "    \"throughput_rps\": %s,\n"
    (json_num json_leg.g_throughput_rps);
  Printf.fprintf oc "    \"p50_ms\": %s,\n" (json_num json_leg.g_p50_ms);
  Printf.fprintf oc "    \"p99_ms\": %s,\n" (json_num json_leg.g_p99_ms);
  Printf.fprintf oc "    \"cache_hit_rate\": %s,\n"
    (json_num json_leg.g_cache_hit_rate);
  Printf.fprintf oc "    \"mismatches\": %d,\n"
    (json_leg.g_mismatches + binary_leg.g_mismatches);
  Printf.fprintf oc "    \"dropped\": %d,\n"
    (json_leg.g_dropped + binary_leg.g_dropped);
  Printf.fprintf oc "    \"identical_to_direct\": %b,\n" identical;
  Printf.fprintf oc "    \"codecs\": {\n";
  write_leg oc ~last:false json_leg;
  write_leg oc ~last:true binary_leg;
  Printf.fprintf oc "    },\n";
  Printf.fprintf oc "    \"stages\": {\n";
  let rec write_stages = function
    | [] -> ()
    | [ s ] -> write_stage oc ~last:true s
    | s :: rest ->
      write_stage oc ~last:false s;
      write_stages rest
  in
  write_stages stages;
  Printf.fprintf oc "    },\n";
  Printf.fprintf oc "    \"telemetry\": {\n";
  Printf.fprintf oc "      \"sample_every\": %d,\n" telemetry.t_sample_every;
  Printf.fprintf oc "      \"enabled_rps\": %s,\n"
    (json_num telemetry.t_enabled_rps);
  Printf.fprintf oc "      \"disabled_rps\": %s,\n"
    (json_num telemetry.t_disabled_rps);
  Printf.fprintf oc "      \"overhead_frac\": %s\n"
    (json_num telemetry.t_overhead_frac);
  Printf.fprintf oc "    }\n";
  Printf.fprintf oc "  }%s\n" (if chaos = None then "" else ",");
  Option.iter
    (fun c ->
      let success_rate =
        if c.c_requests = 0 then 0.
        else float_of_int c.c_succeeded /. float_of_int c.c_requests
      in
      Printf.fprintf oc "  \"chaos\": {\n";
      Printf.fprintf oc "    \"seed\": %d,\n" c.c_seed;
      Printf.fprintf oc "    \"requests\": %d,\n" c.c_requests;
      Printf.fprintf oc "    \"succeeded\": %d,\n" c.c_succeeded;
      Printf.fprintf oc "    \"success_rate\": %s,\n" (json_num success_rate);
      Printf.fprintf oc "    \"retries\": %d,\n" c.c_retries;
      Printf.fprintf oc "    \"reconnects\": %d,\n" c.c_reconnects;
      Printf.fprintf oc "    \"failures\": %d,\n" c.c_failures;
      Printf.fprintf oc "    \"mismatches\": %d,\n" c.c_mismatches;
      Printf.fprintf oc "    \"crashes_absorbed\": %d,\n"
        c.c_crashes_absorbed;
      Printf.fprintf oc "    \"internal_errors\": %d,\n" c.c_internal_errors;
      Printf.fprintf oc "    \"connection_errors\": %d,\n"
        c.c_connection_errors;
      Printf.fprintf oc "    \"chaos_ops\": %d,\n" c.c_ops;
      Printf.fprintf oc "    \"wall_s\": %s,\n" (json_num c.c_wall_s);
      Printf.fprintf oc "    \"budget_s\": %s\n" (json_num c.c_budget_s);
      Printf.fprintf oc "  }\n")
    chaos;
  Printf.fprintf oc "}\n";
  close_out oc

(* Run one codec leg on a {e fresh} engine (cold cache — a fair
   head-to-head) sharing the prebuilt quote table. *)
let run_leg ?label ~codec ~make_engine ~shards ~path
    ~(expected : string array) ~clients () =
  let label = Option.value label ~default:codec.name in
  let n = Array.length expected in
  let engine = make_engine () in
  let server = Serve.Server.listen engine ~path ?shards () in
  let bounds c =
    (* Contiguous per-client slices covering all n requests. *)
    (c * n / clients, (c + 1) * n / clients)
  in
  let t0 = Obs.Monotonic.now_ns () in
  let domains =
    Array.init clients (fun c ->
        Domain.spawn (fun () ->
            let lo, hi = bounds c in
            run_client ~path ~codec ~expected ~lo ~hi))
  in
  let results = Array.map Domain.join domains in
  let wall_s = Obs.Monotonic.elapsed_s ~since_ns:t0 in
  let reactor_shards = Serve.Server.reactor_shards server in
  Serve.Server.shutdown server;
  let answered = Array.fold_left (fun a r -> a + r.answered) 0 results in
  let mismatches = Array.fold_left (fun a r -> a + r.mismatched) 0 results in
  let dropped = n - answered in
  let all_lat =
    Array.concat (Array.to_list (Array.map (fun r -> r.latencies_ms) results))
  in
  Array.sort compare all_lat;
  let s = Serve.Engine.stats engine in
  let cache_hit_rate =
    let total =
      s.Serve.Engine.cache.Serve.Cache.hits + s.cache.Serve.Cache.misses
    in
    if total = 0 then 0.
    else float_of_int s.cache.Serve.Cache.hits /. float_of_int total
  in
  let leg =
    {
      g_codec = codec.name;
      g_throughput_rps =
        (if wall_s > 0. then float_of_int answered /. wall_s else nan);
      g_p50_ms = percentile all_lat 0.50;
      g_p99_ms = percentile all_lat 0.99;
      g_cache_hit_rate = cache_hit_rate;
      g_mismatches = mismatches;
      g_dropped = dropped;
      g_identical = mismatches = 0 && dropped = 0;
    }
  in
  Printf.printf
    "%-6s served %d/%d in %.3fs: %.0f req/s, p50 %.3fms, p99 %.3fms\n\
     %-6s cache hit rate %.3f (%d hits / %d misses / %d evictions), \
     mismatches %d, dropped %d -> %s\n\
     %!"
    label answered n wall_s leg.g_throughput_rps leg.g_p50_ms leg.g_p99_ms
    label cache_hit_rate s.cache.Serve.Cache.hits s.cache.Serve.Cache.misses
    s.cache.Serve.Cache.evictions mismatches dropped
    (if leg.g_identical then "byte-identical to direct calls"
     else "NOT IDENTICAL");
  (leg, reactor_shards)

let serve_bench ~json ~requests:n ~clients ~shards ~smoke ~chaos ~budget_s =
  (* A reduced quote grid keeps the warm build fast; every engine
     (both legs + the reference) shares one prebuilt table so
     responses are byte-comparable and the build cost is paid once. *)
  let mus =
    Numerics.Grid.linspace ~lo:(-0.01) ~hi:0.01 ~n:(if smoke then 3 else 5)
  and sigmas =
    Numerics.Grid.linspace ~lo:0.02 ~hi:0.16 ~n:(if smoke then 3 else 4)
  in
  let table = Market.Quote_table.build ~mus ~sigmas p in
  let make_engine () = Serve.Engine.create ~table ~base:p () in
  Printf.printf "bench serve: %d requests, %d clients, window %d\n%!" n
    clients pipeline_window;
  let reference = make_engine () in
  let distinct = min 64 (max 8 (n / 8)) in
  let corpus = serve_corpus ~n ~distinct in
  let lines = Array.map Serve.Request.encode corpus in
  let frames = Array.map Serve.Binary.encode_request corpus in
  let expected = Array.map (Serve.Engine.handle_decoded reference) corpus in
  let json_codec =
    {
      name = "json";
      preamble = "";
      write =
        (fun oc j ->
          output_string oc lines.(j);
          output_char oc '\n');
      read = In_channel.input_line;
    }
  and binary_codec =
    {
      name = "binary";
      preamble = Serve.Binary.magic;
      write = (fun oc j -> output_string oc frames.(j));
      read = Serve.Binary.input_frame;
    }
  in
  let path = Printf.sprintf "/tmp/htlc-serve-%d.sock" (Unix.getpid ()) in
  (* Measured legs start from empty histogram windows (the first read
     after a reset covers everything since it), so the recorded stage
     breakdown covers exactly this corpus (telemetry is on by default;
     the default 1/256 sampler stays in effect — what production
     overhead looks like). *)
  Serve.Telemetry.reset ();
  let json_leg, reactor_shards =
    run_leg ~codec:json_codec ~make_engine ~shards ~path ~expected ~clients ()
  in
  let binary_leg, _ =
    run_leg ~codec:binary_codec ~make_engine ~shards ~path ~expected ~clients ()
  in
  if json_leg.g_throughput_rps > 0. then
    Printf.printf "binary/json throughput: %.2fx\n%!"
      (binary_leg.g_throughput_rps /. json_leg.g_throughput_rps);
  (* Snapshot the stage quantiles before the telemetry-off overhead leg
     (which records nothing) and the chaos phase (which would fold its
     injected-fault latencies into the breakdown). *)
  let stages = Serve.Telemetry.stage_stats () in
  (* Overhead head-to-head: warm reruns of the JSON corpus.  The codec
     legs above already paid the cold-start costs, but on a shared
     single core the leg-to-leg scheduler/GC drift still swamps one
     comparison, so each mode runs several times interleaved and the
     record keeps per-mode medians.  The within-pair order alternates:
     a fixed off-then-on order turns any monotonic machine drift into a
     systematic bias against the second leg (running the identical
     binary in both roles still "measured" ~5% overhead), and
     alternating cancels it. *)
  let rerun ~label ~on =
    Serve.Telemetry.set_enabled on;
    let g0 = Gc.quick_stat () in
    let leg, _ =
      run_leg ~label ~codec:json_codec ~make_engine ~shards ~path ~expected
        ~clients ()
    in
    let g1 = Gc.quick_stat () in
    Printf.printf "  %s: %d minor GCs, %.1f Mw minor, %.1f Mw promoted\n%!"
      label
      (g1.Gc.minor_collections - g0.Gc.minor_collections)
      ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6)
      ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6);
    Serve.Telemetry.set_enabled true;
    leg.g_throughput_rps
  in
  let telemetry =
    let runs = 5 in
    let offs = Array.make runs 0.
    and ons = Array.make runs 0.
    and ratios = Array.make runs 0. in
    for i = 0 to runs - 1 do
      if i land 1 = 0 then begin
        offs.(i) <- rerun ~label:"tel-off" ~on:false;
        ons.(i) <- rerun ~label:"tel-on" ~on:true
      end
      else begin
        ons.(i) <- rerun ~label:"tel-on" ~on:true;
        offs.(i) <- rerun ~label:"tel-off" ~on:false
      end;
      ratios.(i) <- (if offs.(i) > 0. then ons.(i) /. offs.(i) else nan)
    done;
    let median a =
      Array.sort compare a;
      a.(Array.length a / 2)
    in
    let enabled = median ons
    and disabled = median offs in
    (* Overhead from the median of within-pair ratios, not the ratio of
       medians: the two legs of a pair run back-to-back, so machine
       drift mostly cancels inside each ratio, while legs minutes apart
       can differ by more than the effect being measured. *)
    let overhead_frac = 1. -. median ratios in
    Printf.printf
      "telemetry overhead: %.0f req/s on vs %.0f req/s off (%+.1f%%)\n%!"
      enabled disabled (100. *. overhead_frac);
    {
      t_sample_every = Serve.Telemetry.sample_every ();
      t_enabled_rps = enabled;
      t_disabled_rps = disabled;
      t_overhead_frac = overhead_frac;
    }
  in
  let identical = json_leg.g_identical && binary_leg.g_identical in
  let chaos_summary =
    Option.map
      (fun seed ->
        (* Chaos fates sleep on a per-op schedule, so the phase scales
           linearly with corpus size — cap it: the gate exercises fault
           recovery, not throughput. *)
        let c_n = min n 10_000 in
        let c =
          chaos_phase ~seed ~budget_s ~corpus:(Array.sub lines 0 c_n)
            ~expected:(Array.sub expected 0 c_n) ~probe:corpus.(0)
            ~probe_expected:expected.(0) ~clients ~make_engine
        in
        Printf.printf
          "chaos: %d/%d succeeded (%.4f), %d retries, %d reconnects, %d \
           failures, %d mismatches\n\
           chaos: %d handler crashes absorbed, %d internal errors, %d \
           connection errors, %.3fs wall (budget %.1fs)\n"
          c.c_succeeded c.c_requests
          (float_of_int c.c_succeeded /. float_of_int (max 1 c.c_requests))
          c.c_retries c.c_reconnects c.c_failures c.c_mismatches
          c.c_crashes_absorbed c.c_internal_errors c.c_connection_errors
          c.c_wall_s c.c_budget_s;
        c)
      chaos
  in
  Option.iter
    (fun file ->
      write_serve_baseline ?chaos:chaos_summary ~file ~requests:n ~clients
        ~shards:reactor_shards ~json_leg ~binary_leg ~stages ~telemetry ();
      Printf.printf "wrote %s\n" file)
    json;
  if not identical then exit 1;
  match chaos_summary with
  | Some c
    when c.c_mismatches > 0 || c.c_crashes_absorbed < 1
         || float_of_int c.c_succeeded
            < 0.99 *. float_of_int c.c_requests ->
    (* Preserve the flight recorder for the post-mortem: the last
       requests completed before the gate tripped, with per-stage
       clocks. *)
    let dump = "serve_chaos_recorder.jsonl" in
    (try
       let oc = open_out dump in
       Serve.Telemetry.write_recorder ~reason:"chaos-gate-failure" oc;
       close_out oc;
       Printf.eprintf "bench serve: flight recorder dumped to %s\n" dump
     with Sys_error _ -> ());
    prerr_endline "bench serve: chaos gate failed";
    exit 1
  | _ -> ()

(* --- entry point -------------------------------------------------------- *)

type opts = {
  json : string;
  mc_trials : int;
  jobs : int option;
  smoke : bool;
  ladders : string list;
}

let usage () =
  prerr_endline
    "usage: bench --json FILE [--mc-trials N] [--jobs N] [--smoke] LADDER...\n\
    \       bench serve [--json FILE] [--requests N] [--clients N] \
     [--shards N]\n\
    \                   [--chaos] [--seed N] [--budget-s X] [--smoke]";
  exit 2

let int_arg name v =
  match int_of_string_opt v with
  | Some n when n >= 1 -> n
  | _ ->
    Printf.eprintf "bench: %s expects a positive integer, got %S\n" name v;
    exit 2

let float_arg name v =
  match float_of_string_opt v with
  | Some x when x > 0. -> x
  | _ ->
    Printf.eprintf "bench: %s expects a positive number, got %S\n" name v;
    exit 2

let parse_serve_args args =
  let json = ref None
  and requests = ref 100_000
  and clients = ref 4
  and shards = ref None
  and chaos = ref false
  and seed = ref 42
  and budget_s = ref None
  and smoke = ref false in
  let rec go = function
    | [] -> ()
    | "--json" :: file :: rest ->
      json := Some file;
      go rest
    | "--requests" :: v :: rest ->
      requests := int_arg "--requests" v;
      go rest
    | "--clients" :: v :: rest ->
      clients := int_arg "--clients" v;
      go rest
    | "--shards" :: v :: rest ->
      shards := Some (int_arg "--shards" v);
      go rest
    | "--chaos" :: rest ->
      chaos := true;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      go rest
    | "--budget-s" :: v :: rest ->
      budget_s := Some (float_arg "--budget-s" v);
      go rest
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | _ -> usage ()
  in
  go args;
  if !smoke && !requests = 100_000 then requests := 400;
  let budget_s =
    match !budget_s with Some b -> b | None -> if !smoke then 30. else 120.
  in
  serve_bench ~json:!json ~requests:!requests ~clients:!clients
    ~shards:!shards ~smoke:!smoke
    ~chaos:(if !chaos then Some !seed else None)
    ~budget_s

let parse_args args =
  let json = ref None
  (* A million trials keep each timed leg near 100 ms or more on a
     2-CPU host, so the parallel leg times trials, not domain
     start-up. *)
  and mc_trials = ref 1_000_000
  and jobs = ref None
  and smoke = ref false
  and ladders = ref [] in
  let rec go = function
    | [] -> ()
    | "--json" :: file :: rest ->
      json := Some file;
      go rest
    | "--mc-trials" :: v :: rest ->
      mc_trials := int_arg "--mc-trials" v;
      go rest
    | "--jobs" :: v :: rest ->
      jobs := Some (int_arg "--jobs" v);
      go rest
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | file :: rest when not (String.starts_with ~prefix:"-" file) ->
      ladders := file :: !ladders;
      go rest
    | _ -> usage ()
  in
  go args;
  match (!json, List.rev !ladders) with
  | Some json, (_ :: _ as ladders) ->
    { json; mc_trials = !mc_trials; jobs = !jobs; smoke = !smoke; ladders }
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "serve" :: rest -> parse_serve_args rest
  | args ->
    let o = parse_args args in
    let layers =
      match summarise (List.map ladder_metrics o.ladders) with
      | layers -> layers
      | exception (Obs.Json_parse.Bad msg | Sys_error msg) ->
        Printf.eprintf "bench: %s\n" msg;
        exit 1
    in
    let cpus = Domain.recommended_domain_count () in
    let jobs_n =
      match o.jobs with Some j -> j | None -> Numerics.Pool.recommended ()
    in
    let wall_1, wall_n, identical =
      mc_wall_clock ~trials:o.mc_trials ~jobs_n
    in
    (* A multicore baseline with a parallel run slower than the
       sequential one is not a baseline — refuse to write one.  Smoke
       runs pass tiny trial counts where spawn overhead dominates, so
       the refusal only bites on full recordings. *)
    if jobs_n = 1 then
      Printf.eprintf
        "bench: note: single core available (jobs=1); parallel speedup \
         cannot be demonstrated on this host\n\
         %!"
    else if (not o.smoke) && wall_n >= wall_1 then begin
      Printf.eprintf
        "bench: FAIL: parallel Monte-Carlo (jobs=%d, %.4fs) did not beat \
         sequential (%.4fs) -- refusing to record a bogus multicore \
         baseline\n\
         %!"
        jobs_n wall_n wall_1;
      exit 1
    end;
    write_baseline ~file:o.json ~layers ~jobs_n ~cpus ~trials:o.mc_trials
      ~wall_1 ~wall_n ~identical;
    Printf.printf
      "\nmc/%d-trials wall clock: jobs=1 %.4fs, jobs=%d %.4fs (%.2fx), \
       results %s\n"
      o.mc_trials wall_1 jobs_n wall_n (wall_1 /. wall_n)
      (if identical then "bit-identical" else "DIFFERENT");
    Printf.printf "wrote %s\n" o.json
