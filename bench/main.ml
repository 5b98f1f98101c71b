(* Benchmark harness.

   Default run (no flags) does two things:

   1. Regenerates every table and figure of the paper (the same rows
      and series the paper reports) by running the full experiment
      registry — this is the reproduction output.

   2. Times the computational kernel behind each table/figure with
      Bechamel (one [Test.make] per experiment), plus the substrate
      micro-kernels, and prints an OLS summary.

   With [--json FILE] it instead writes the machine-readable perf
   baseline: per-kernel ns/op plus the wall-clock of the 20k-trial
   Monte-Carlo kernel at jobs=1 and jobs=N (and whether the two results
   were bit-identical — the determinism contract, recorded on every
   baseline).  Flags: [--json FILE] [--mc-trials N] [--jobs N]
   [--smoke] (tiny kernel subset + quota, for CI). *)

open Bechamel
open Toolkit

let p = Swap.Params.defaults

(* --- kernels: one per table/figure ------------------------------------ *)

let stage = Staged.stage

let kernel_tab1 =
  Test.make ~name:"tab1/protocol-run"
    (stage (fun () -> ignore (Swap.Protocol.run p ~p_star:2.)))

let kernel_tab3 =
  Test.make ~name:"tab3/params-validate"
    (stage (fun () -> ignore (Swap.Params.validate p)))

let kernel_fig2 =
  Test.make ~name:"fig2/timeline"
    (stage (fun () ->
         let tl = Swap.Timeline.ideal p in
         ignore (Swap.Timeline.check p tl)))

let kernel_fig3 =
  Test.make ~name:"fig3/a-t3-utilities"
    (stage (fun () ->
         for i = 1 to 100 do
           let x = 0.04 *. float_of_int i in
           ignore (Swap.Utility.a_t3_cont p ~p_t3:x)
         done;
         ignore (Swap.Cutoff.p_t3_low p ~p_star:2.)))

let kernel_fig4 =
  let k3 = Swap.Cutoff.p_t3_low p ~p_star:2. in
  Test.make ~name:"fig4/b-t2-curve"
    (stage (fun () ->
         for i = 1 to 100 do
           let x = 0.045 *. float_of_int i in
           ignore (Swap.Utility.b_t2_cont p ~p_star:2. ~k3 ~p_t2:x)
         done))

let kernel_fig5 =
  let k3 = Swap.Cutoff.p_t3_low p ~p_star:2. in
  let band = Swap.Cutoff.p_t2_band p ~p_star:2. in
  Test.make ~name:"fig5/a-t1-cont"
    (stage (fun () -> ignore (Swap.Utility.a_t1_cont p ~p_star:2. ~k3 ~band)))

let kernel_eq29 =
  Test.make ~name:"eq29/p-star-band"
    (stage (fun () -> ignore (Swap.Cutoff.p_star_band_endpoints p)))

let kernel_fig6 =
  Test.make ~name:"fig6/sr-eval"
    (stage (fun () -> ignore (Swap.Success.analytic p ~p_star:2.)))

let kernel_fig7 =
  let c = Swap.Collateral.symmetric p ~q:0.5 in
  Test.make ~name:"fig7/t2-cont-set"
    (stage (fun () -> ignore (Swap.Collateral.cont_set_t2 c ~p_star:2.)))

let kernel_fig8 =
  let c = Swap.Collateral.symmetric p ~q:0.5 in
  Test.make ~name:"fig8/t1-utilities"
    (stage (fun () ->
         ignore (Swap.Collateral.a_t1_cont c ~p_star:2.);
         ignore (Swap.Collateral.b_t1_cont c ~p_star:2.)))

let kernel_fig9 =
  let c = Swap.Collateral.symmetric p ~q:0.5 in
  Test.make ~name:"fig9/sr-collateral"
    (stage (fun () -> ignore (Swap.Collateral.success_rate c ~p_star:2.)))

let kernel_mc =
  let policy = Swap.Agent.rational p ~p_star:2. in
  Test.make ~name:"mc/simulate-1k"
    (stage (fun () ->
         ignore (Swap.Montecarlo.run ~trials:1_000 p ~p_star:2. ~policy)))

let kernel_lattice =
  Test.make ~name:"lattice/solve-30x30"
    (stage (fun () ->
         let spec =
           Swap.Lattice_game.make_spec ~steps_a:30 ~steps_b:30 p ~p_star:2.
         in
         ignore (Swap.Lattice_game.solve spec)))

let kernel_baselines =
  let c = Swap.Collateral.symmetric p ~q:0.5 in
  Test.make ~name:"baselines/mc-collateral-1k"
    (stage (fun () ->
         ignore (Swap.Montecarlo.run_collateral ~trials:1_000 c ~p_star:2.)))

let kernel_jumps =
  let policy = Swap.Agent.rational p ~p_star:2. in
  let jd =
    Stochastic.Jump_diffusion.create ~mu:p.Swap.Params.mu ~sigma:0.07
      ~lambda:0.05 ~jump_mean:(-0.02) ~jump_stddev:0.3
  in
  Test.make ~name:"jumps/mc-1k"
    (stage (fun () ->
         ignore
           (Swap.Montecarlo.run ~trials:1_000
              ~sampler:(Swap.Montecarlo.jump_sampler jd)
              p ~p_star:2. ~policy)))

let kernel_optionality =
  Test.make ~name:"optionality/option-values"
    (stage (fun () -> ignore (Swap.Optionality.option_values p ~p_star:2.)))

let kernel_selection =
  Test.make ~name:"selection/assess-menu"
    (stage (fun () ->
         ignore
           (Swap.Selection.menu p ~p_star:2.
              [ Swap.Selection.Plain; Swap.Selection.Collateral 0.5 ])))

let kernel_frictions =
  Test.make ~name:"frictions/staking-and-fees"
    (stage (fun () ->
         let s = Swap.Staking.create p ~yield_a:0.002 ~yield_b:0.002 in
         ignore (Swap.Staking.success_rate s ~p_star:2.);
         let f = Swap.Fees.create p ~fee_a:0.05 ~fee_b:0.05 in
         ignore (Swap.Fees.success_rate f ~p_star:2.)))

let kernel_backtest =
  (* A small fixed market so the kernel stays sub-second. *)
  let path, _ =
    Market.Regimes.sample
      (Numerics.Rng.create ~seed:7 ())
      Market.Regimes.default_spec ~p0:2. ~dt:0.5 ~steps:600
  in
  Test.make ~name:"backtest/fit-quote-one-trade"
    (stage (fun () ->
         match Market.Calibrate.fit_window path ~until:250. ~window:168. with
         | Error _ -> ()
         | Ok fit ->
           let params =
             Market.Calibrate.to_params fit
               ~spot:(Stochastic.Path.at path 250.)
           in
           ignore (Swap.Success.maximize params)))

let kernel_crash =
  Test.make ~name:"crash/protocol-with-crash"
    (stage (fun () ->
         ignore (Swap.Protocol.run ~bob_offline_from:7.5 p ~p_star:2.)))

let kernel_chaos =
  let faults =
    Chainsim.Faults.create ~drop_prob:0.2
      ~delay:(Chainsim.Faults.Shifted_exponential { mean = 0.8; cap = 6. })
      ~reorg_prob:0.1 ()
  in
  Test.make ~name:"chaos/protocol-with-faults"
    (stage (fun () ->
         ignore
           (Swap.Protocol.run ~faults_a:faults ~faults_b:faults
              ~retry:Swap.Agent.default_retry ~delay_t2:2. ~delay_t3:2. p
              ~p_star:2.)))

let kernel_ac3 =
  Test.make ~name:"ac3/witness-protocol-run"
    (stage (fun () -> ignore (Swap.Ac3.run p ~p_star:2.)))

let kernel_waiting =
  Test.make ~name:"waiting/slacked-sr"
    (stage (fun () ->
         let m = Swap.Margins.create p ~delay_t2:2. ~delay_t3:2. in
         ignore (Swap.Margins.success_rate m ~p_star:2.)))

let kernel_stablecoin =
  let ou = Stochastic.Exp_ou.create ~kappa:0.1 ~theta_price:2. ~sigma:0.1 in
  let model = Swap.Generic_model.exp_ou ou in
  Test.make ~name:"stablecoin/generic-sr"
    (stage (fun () -> ignore (Swap.Generic_model.success_rate p model ~p_star:2.)))

let kernel_negotiation =
  Test.make ~name:"negotiation/nash-rate"
    (stage (fun () -> ignore (Swap.Bargaining.nash_rate ~grid:20 p)))

let kernel_security =
  Test.make ~name:"security/griefing+reputation"
    (stage (fun () ->
         ignore (Swap.Griefing.analyse p ~p_star:2.);
         ignore
           (Swap.Repeated.solve p ~p_star:2.
              { Swap.Repeated.trades_per_week = 14.; horizon_weeks = 26. })))

let kernel_presets =
  Test.make ~name:"presets/pair-assessment"
    (stage (fun () ->
         ignore (Swap.Presets.assess Swap.Presets.btc_like Swap.Presets.eth_like)))

let kernel_scorecard =
  Test.make ~name:"scorecard/eq18-claim"
    (stage (fun () -> ignore (Swap.Cutoff.p_t3_low p ~p_star:2.)))

let kernel_attribution =
  Test.make ~name:"attribution/decomposition"
    (stage (fun () -> ignore (Swap.Outcomes.distribution p ~p_star:2.)))

let kernel_ac3wn =
  Test.make ~name:"ac3/witness-network-run"
    (stage (fun () -> ignore (Swap.Ac3wn.run p ~p_star:2.)))

let kernel_uncertainty =
  let b = Swap.Bayesian.belief [ (0.5, 0.1); (0.5, 0.5) ] in
  Test.make ~name:"uncertainty/ex-ante-sr"
    (stage (fun () ->
         ignore (Swap.Bayesian.ex_ante_success_rate p ~belief_on_alice:b ~p_star:2.)))

let kernel_graph_assign =
  let g = Swapgraph.Topology.generate Swapgraph.Topology.Random ~n:64 ~seed:7 in
  Test.make ~name:"swapgraph/assign-timelocks"
    (stage (fun () ->
         let s = Swapgraph.Timelock.assign g ~tau:4. ~eps:1. in
         match Swapgraph.Timelock.validate g s with
         | Ok () -> ()
         | Error e -> failwith e))

let kernel_graph_solve =
  let g = Swapgraph.Topology.cycle 8 in
  let s = Swap.Graphlink.schedule p g in
  Test.make ~name:"swapgraph/solve-cycle-8"
    (stage (fun () ->
         ignore (Swapgraph.Game.analyse g (Swap.Graphlink.payoffs p g s))))

let kernel_graph_sweep =
  let specs =
    List.init 100 (fun i ->
        {
          Swapgraph.Sweep.family = Swapgraph.Topology.Random;
          size = 4 + (i mod 5);
          slack = 0.;
          topo_seed = i;
        })
  in
  Test.make ~name:"swapgraph/sweep-100-topologies"
    (stage (fun () ->
         ignore
           (Swapgraph.Sweep.run ~jobs:1 ~trials:64 ~tau:p.Swap.Params.tau_b
              ~eps:p.Swap.Params.eps_b
              ~policy:(Swap.Graphlink.depth_aware_policy p ~p_star:2.)
              ~payoffs:(Swap.Graphlink.payoffs p) specs)))

(* --- substrate micro-kernels -------------------------------------------- *)

let kernel_sha256 =
  let payload = String.make 1024 'x' in
  Test.make ~name:"substrate/sha256-1KiB"
    (stage (fun () -> ignore (Chainsim.Sha256.digest payload)))

let kernel_erfc =
  Test.make ~name:"substrate/erfc"
    (stage (fun () -> ignore (Numerics.Special.erfc 1.234)))

let kernel_gbm_sample =
  let rng = Numerics.Rng.create ~seed:1 () in
  let gbm = Swap.Params.gbm p in
  Test.make ~name:"substrate/gbm-sample"
    (stage (fun () -> ignore (Stochastic.Gbm.sample rng gbm ~p0:2. ~tau:4.)))

let kernel_quadrature =
  Test.make ~name:"substrate/gauss-legendre-96"
    (stage (fun () ->
         ignore
           (Numerics.Integrate.gauss_legendre ~n:96
              (fun x -> exp (-.x *. x))
              ~a:0. ~b:3.)))

let kernel_chain_cycle =
  Test.make ~name:"substrate/chain-htlc-cycle"
    (stage (fun () ->
         let c =
           Chainsim.Chain.create ~name:"bench" ~token:"T" ~tau:1.
             ~mempool_delay:0.1 ()
         in
         Chainsim.Chain.mint c ~account:"a" ~amount:10.;
         let s = Chainsim.Secret.of_preimage "bench" in
         ignore
           (Chainsim.Chain.submit c ~at:0.
              (Chainsim.Tx.Htlc_lock
                 { contract_id = "h"; sender = "a"; recipient = "b";
                   amount = 4.; hash = s.Chainsim.Secret.hash; expiry = 5. }));
         ignore
           (Chainsim.Chain.submit c ~at:1.5
              (Chainsim.Tx.Htlc_claim
                 { contract_id = "h"; preimage = s.Chainsim.Secret.preimage }));
         ignore (Chainsim.Chain.advance c ~until:10.)))

let all_tests =
  [
    kernel_tab1; kernel_tab3; kernel_fig2; kernel_fig3; kernel_fig4;
    kernel_fig5; kernel_eq29; kernel_fig6; kernel_fig7; kernel_fig8;
    kernel_fig9; kernel_mc; kernel_lattice; kernel_baselines; kernel_jumps;
    kernel_optionality; kernel_selection; kernel_frictions; kernel_backtest;
    kernel_crash; kernel_chaos; kernel_ac3; kernel_waiting; kernel_stablecoin;
    kernel_negotiation; kernel_security; kernel_graph_assign;
    kernel_graph_solve; kernel_graph_sweep; kernel_uncertainty;
    kernel_ac3wn; kernel_attribution; kernel_presets; kernel_scorecard;
    kernel_sha256; kernel_erfc; kernel_gbm_sample; kernel_quadrature;
    kernel_chain_cycle;
  ]

(* The MC kernels in smoke mode: just enough to keep the JSON plumbing
   and the determinism record exercised in CI without a full sweep. *)
let smoke_tests = [ kernel_mc; kernel_baselines; kernel_gbm_sample ]

let run_benchmarks ~quota tests =
  let grouped = Test.make_grouped ~name:"swap" tests in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.to_seq results |> List.of_seq
  |> List.map (fun (name, ols_result) ->
         let estimate =
           match Analyze.OLS.estimates ols_result with
           | Some (x :: _) -> x
           | _ -> nan
         in
         let r2 =
           Option.value ~default:nan (Analyze.OLS.r_square ols_result)
         in
         (name, estimate, r2))
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let print_benchmarks rows =
  Printf.printf "%-38s %16s %8s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 64 '-');
  List.iter
    (fun (name, ns, r2) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns >= 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.1f ns" ns
      in
      Printf.printf "%-38s %16s %8.4f\n" name human r2)
    rows

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

let json_num x = if Float.is_nan x then "null" else Printf.sprintf "%.6g" x

let write_baseline ~file ~rows ~jobs_n ~trials ~wall_1 ~wall_n ~identical
    ~obs_json =
  let oc = open_out file in
  let speedup = if wall_n > 0. then wall_1 /. wall_n else nan in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"htlc-bench/v1\",\n";
  (* Embedded htlc-obs/v1 metrics snapshot (already serialised JSON). *)
  Printf.fprintf oc "  \"obs\": %s,\n" obs_json;
  Printf.fprintf oc "  \"jobs\": { \"sequential\": 1, \"parallel\": %d },\n"
    jobs_n;
  Printf.fprintf oc "  \"kernels\": [\n";
  let n_rows = List.length rows in
  List.iteri
    (fun i (name, ns, r2) ->
      Printf.fprintf oc
        "    { \"name\": %s, \"ns_per_run\": %s, \"r_square\": %s }%s\n"
        (Obs.Json.str name) (json_num ns) (json_num r2)
        (if i = n_rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"mc\": {\n";
  Printf.fprintf oc "    \"trials\": %d,\n" trials;
  Printf.fprintf oc "    \"wall_s_jobs1\": %s,\n" (json_num wall_1);
  Printf.fprintf oc "    \"wall_s_jobsN\": %s,\n" (json_num wall_n);
  Printf.fprintf oc "    \"speedup\": %s,\n" (json_num speedup);
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
  json : string option;
  mc_trials : int;
  jobs : int option;
  smoke : bool;
}

let usage () =
  prerr_endline
    "usage: bench [--json FILE] [--mc-trials N] [--jobs N] [--smoke]\n\
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

let parse_args () =
  let json = ref None
  and mc_trials = ref 20_000
  and jobs = ref None
  and smoke = ref false in
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
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  { json = !json; mc_trials = !mc_trials; jobs = !jobs; smoke = !smoke }

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: rest -> parse_serve_args rest
  | _ ->
  let o = parse_args () in
  Option.iter Numerics.Pool.set_jobs o.jobs;
  match o.json with
  | None ->
    print_endline
      "================================================================";
    print_endline " Reproduction output: every table and figure of the paper";
    print_endline
      "================================================================\n";
    print_string (Experiments.Registry.run_all ());
    print_endline
      "\n================================================================";
    print_endline
      " Bechamel timings (one kernel per table/figure + substrates)";
    print_endline
      "================================================================\n";
    print_benchmarks (run_benchmarks ~quota:0.3 all_tests)
  | Some file ->
    let tests = if o.smoke then smoke_tests else all_tests in
    let quota = if o.smoke then 0.02 else 0.3 in
    (* Kernel rows are sequential per-run costs: pin the pool to one
       domain while timing so a --jobs flag (which the determinism
       record below applies explicitly) cannot thrash the timed runs
       on a small host — otherwise a smoke run at --jobs 2 on one core
       measures scheduler contention, not the kernel, and trips the
       budget gate against a jobs=1 baseline. *)
    Numerics.Pool.set_jobs 1;
    let rows = run_benchmarks ~quota tests in
    print_benchmarks rows;
    (* A junk OLS fit means the ns/run column is noise, not a
       measurement — say so instead of recording it silently. *)
    List.iter
      (fun (name, _, r2) ->
        if Float.is_nan r2 || r2 < 0.5 then
          Printf.eprintf
            "bench: WARNING: %s: poor timing fit (r_square = %s); \
             ns_per_run is unreliable\n\
             %!"
            name
            (if Float.is_nan r2 then "nan" else Printf.sprintf "%.3f" r2))
      rows;
    let jobs_n =
      match o.jobs with Some j -> j | None -> Numerics.Pool.recommended ()
    in
    let wall_1, wall_n, identical =
      mc_wall_clock ~trials:o.mc_trials ~jobs_n
    in
    (* A multicore baseline recorded with jobs=1 (or with a parallel run
       slower than sequential) is not a baseline — refuse to write one.
       Smoke runs pass tiny trial counts where spawn overhead dominates,
       so the assertion only bites on full recordings. *)
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
    write_baseline ~file ~rows ~jobs_n ~trials:o.mc_trials ~wall_1 ~wall_n
      ~identical
      ~obs_json:(Obs.Metrics.to_json (Obs.Metrics.snapshot ()));
    Printf.printf
      "\nmc/%d-trials wall clock: jobs=1 %.4fs, jobs=%d %.4fs (%.2fx), \
       results %s\n"
      o.mc_trials wall_1 jobs_n wall_n
      (if wall_n > 0. then wall_1 /. wall_n else nan)
      (if identical then "bit-identical" else "DIFFERENT");
    Printf.printf "wrote %s\n" file
