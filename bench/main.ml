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
   the chaos gate below: fault-injected clients and one handler crash
   on a live reactor, written as the "chaos" section that
   validate_serve --chaos checks. *)

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

(* --- the chaos gate ------------------------------------------------------- *)

(* `bench serve`: clients retry a seeded corpus through fault-injected
   transports (Serve.Chaos wrapping Serve.Client dialers) against a live
   reactor, while one request on its own clean connection crashes its
   handler mid-run.  Every response that does arrive must be
   byte-identical to a reference engine's direct answer
   ([Engine.handle_decoded]); the gate is the "chaos" JSON section
   validate_serve pins in CI.  Serve throughput and per-layer costs are
   measured by perfbench's serve-hot and recorded in BENCH_mc.json. *)

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
              "bench serve: wall budget %.1fs exceeded -- aborting (lost \
               response or hung shutdown?)\n\
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
    prerr_endline "bench serve: the injected handler crash was not absorbed \
                   on its connection";
  absorbed

let chaos_phase ~seed ~budget_s ~corpus ~expected ~probe ~probe_expected
    ~clients ~engine =
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

let write_chaos_record ~file c =
  let success_rate =
    if c.c_requests = 0 then 0.
    else float_of_int c.c_succeeded /. float_of_int c.c_requests
  in
  let oc = open_out file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"htlc-bench/v1\",\n";
  Printf.fprintf oc "  \"chaos\": {\n";
  Printf.fprintf oc "    \"seed\": %d,\n" c.c_seed;
  Printf.fprintf oc "    \"requests\": %d,\n" c.c_requests;
  Printf.fprintf oc "    \"succeeded\": %d,\n" c.c_succeeded;
  Printf.fprintf oc "    \"success_rate\": %s,\n" (json_num success_rate);
  Printf.fprintf oc "    \"retries\": %d,\n" c.c_retries;
  Printf.fprintf oc "    \"reconnects\": %d,\n" c.c_reconnects;
  Printf.fprintf oc "    \"failures\": %d,\n" c.c_failures;
  Printf.fprintf oc "    \"mismatches\": %d,\n" c.c_mismatches;
  Printf.fprintf oc "    \"crashes_absorbed\": %d,\n" c.c_crashes_absorbed;
  Printf.fprintf oc "    \"internal_errors\": %d,\n" c.c_internal_errors;
  Printf.fprintf oc "    \"connection_errors\": %d,\n" c.c_connection_errors;
  Printf.fprintf oc "    \"chaos_ops\": %d,\n" c.c_ops;
  Printf.fprintf oc "    \"wall_s\": %s,\n" (json_num c.c_wall_s);
  Printf.fprintf oc "    \"budget_s\": %s\n" (json_num c.c_budget_s);
  Printf.fprintf oc "  }\n";
  Printf.fprintf oc "}\n";
  close_out oc

let serve_bench ~json ~requests:n ~clients ~seed ~smoke ~budget_s =
  (* A reduced quote grid keeps the warm build fast; the served engine
     and the reference share one prebuilt table, so responses are
     byte-comparable and the build cost is paid once. *)
  let mus =
    Numerics.Grid.linspace ~lo:(-0.01) ~hi:0.01 ~n:(if smoke then 3 else 5)
  and sigmas =
    Numerics.Grid.linspace ~lo:0.02 ~hi:0.16 ~n:(if smoke then 3 else 4)
  in
  let table = Market.Quote_table.build ~mus ~sigmas p in
  let make_engine () = Serve.Engine.create ~table ~base:p () in
  let corpus = serve_corpus ~n ~distinct:(min 64 (max 8 (n / 8))) in
  let expected =
    Array.map (Serve.Engine.handle_decoded (make_engine ())) corpus
  in
  let c =
    chaos_phase ~seed ~budget_s
      ~corpus:(Array.map Serve.Request.encode corpus)
      ~expected ~probe:corpus.(0) ~probe_expected:expected.(0) ~clients
      ~engine:(make_engine ())
  in
  Printf.printf
    "chaos: %d/%d succeeded (%.4f), %d retries, %d reconnects, %d failures, \
     %d mismatches\n\
     chaos: %d handler crashes absorbed, %d internal errors, %d connection \
     errors, %.3fs wall (budget %.1fs)\n"
    c.c_succeeded c.c_requests
    (float_of_int c.c_succeeded /. float_of_int (max 1 c.c_requests))
    c.c_retries c.c_reconnects c.c_failures c.c_mismatches
    c.c_crashes_absorbed c.c_internal_errors c.c_connection_errors c.c_wall_s
    c.c_budget_s;
  Option.iter
    (fun file ->
      write_chaos_record ~file c;
      Printf.printf "wrote %s\n" file)
    json;
  if
    c.c_mismatches > 0 || c.c_crashes_absorbed < 1
    || float_of_int c.c_succeeded < 0.99 *. float_of_int c.c_requests
  then begin
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
  end

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
    \       bench serve [--json FILE] [--requests N] [--clients N] [--seed N]\n\
    \                   [--budget-s X] [--smoke]";
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
  and requests = ref None
  and clients = ref 4
  and seed = ref 42
  and budget_s = ref None
  and smoke = ref false in
  let rec go = function
    | [] -> ()
    | "--json" :: file :: rest ->
      json := Some file;
      go rest
    | "--requests" :: v :: rest ->
      requests := Some (int_arg "--requests" v);
      go rest
    | "--clients" :: v :: rest ->
      clients := int_arg "--clients" v;
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
  (* Chaos fates sleep on a per-op schedule, so the run's wall time
     grows linearly with the corpus. *)
  let requests =
    match !requests with Some n -> n | None -> if !smoke then 400 else 10_000
  and budget_s =
    match !budget_s with Some b -> b | None -> if !smoke then 30. else 120.
  in
  serve_bench ~json:!json ~requests ~clients:!clients ~seed:!seed
    ~smoke:!smoke ~budget_s

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
