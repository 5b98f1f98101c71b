(* Command-line interface to the atomic-swap game library: one cmdliner
   command per surface, grouped in [main_cmd] at the end of this file
   (`swap_cli --help` lists them). *)

open Cmdliner

(* --- argument validation ------------------------------------------------ *)

(* Values the library refuses with [Invalid_argument] (trial counts,
   sizes, probabilities, windows, job counts, deadlines) are rejected at
   parse time as usage errors (exit 124), not as an uncaught
   exception. *)
let int_conv ~expected ok =
  let parse s =
    match int_of_string_opt s with
    | Some n when ok n -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive_int = int_conv ~expected:"a positive integer" (fun n -> n >= 1)

(* Grid sizes: [Grid.linspace] needs both endpoints. *)
let grid_points = int_conv ~expected:"an integer >= 2" (fun n -> n >= 2)

(* Finite floats only: a NaN or infinite value passes no library check
   meaningfully. *)
let float_conv ~docv ~expected ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv ~docv (parse, Format.pp_print_float)

let probability =
  float_conv ~docv:"P" ~expected:"a probability in [0, 1]" (fun x ->
      x >= 0. && x <= 1.)

(* Positive once converted to the seconds [Client.create] takes: a
   subnormal count of milliseconds divides to 0. *)
let positive_ms =
  float_conv ~docv:"MS" ~expected:"a positive number of milliseconds"
    (fun ms -> ms /. 1000. > 0.)

let non_negative_float =
  float_conv ~docv:"X" ~expected:"a non-negative number" (fun x -> x >= 0.)

(* [term]'s value, or the usage error [msg] when [ok] rejects it. *)
let require ok msg term =
  let check v = if ok v then `Ok v else `Error (true, msg) in
  Term.(ret (const check $ term))

(* --- shared parameter flags ------------------------------------------- *)

let params_term =
  let alpha_a =
    Arg.(value & opt float 0.3 & info [ "alpha-a" ] ~doc:"Alice's success premium.")
  in
  let alpha_b =
    Arg.(value & opt float 0.3 & info [ "alpha-b" ] ~doc:"Bob's success premium.")
  in
  let r_a =
    Arg.(value & opt float 0.01 & info [ "r-a" ] ~doc:"Alice's hourly discount rate.")
  in
  let r_b =
    Arg.(value & opt float 0.01 & info [ "r-b" ] ~doc:"Bob's hourly discount rate.")
  in
  let tau_a =
    Arg.(value & opt float 3. & info [ "tau-a" ] ~doc:"Chain_a confirmation time (h).")
  in
  let tau_b =
    Arg.(value & opt float 4. & info [ "tau-b" ] ~doc:"Chain_b confirmation time (h).")
  in
  let eps_b =
    Arg.(value & opt float 1. & info [ "eps-b" ] ~doc:"Chain_b mempool delay (h).")
  in
  let p0 = Arg.(value & opt float 2. & info [ "p0" ] ~doc:"Spot price of Token_b.") in
  let mu = Arg.(value & opt float 0.002 & info [ "mu" ] ~doc:"Hourly drift.") in
  let sigma =
    Arg.(value & opt float 0.1 & info [ "sigma" ] ~doc:"Hourly volatility.")
  in
  let build alpha_a alpha_b r_a r_b tau_a tau_b eps_b p0 mu sigma =
    Swap.Params.create
      ~alice:{ Swap.Params.alpha = alpha_a; r = r_a }
      ~bob:{ Swap.Params.alpha = alpha_b; r = r_b }
      ~tau_a ~tau_b ~eps_b ~p0 ~mu ~sigma ()
  in
  Term.(
    const build $ alpha_a $ alpha_b $ r_a $ r_b $ tau_a $ tau_b $ eps_b $ p0
    $ mu $ sigma)

let p_star_term =
  Arg.(value & opt float 2. & info [ "p-star" ] ~doc:"Agreed exchange rate.")

let q_term =
  Arg.(value & opt float 0. & info [ "q" ] ~doc:"Symmetric collateral deposit.")

let jobs_term =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel sections (Monte-Carlo chunks, \
           experiment fan-out).  Defaults to the pool's global setting: \
           $(b,HTLC_JOBS) when set, otherwise the machine's recommended \
           domain count.  Results are bit-identical for any value.")

(* --- observability flags ------------------------------------------------ *)

let metrics_term =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "When the command finishes, print an $(b,htlc-obs/v1) metrics \
           snapshot (one-line JSON) to stderr: pool and Monte-Carlo \
           counters, cutoff-cache hits/misses/evictions, chain fault \
           counters, latency histograms.")

let trace_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable span tracing and, when the command finishes, write the \
           finished spans to $(docv) as JSONL ($(b,htlc-obs/v1), one span \
           per line).")

(* Shared observability epilogue: tracing is switched on up front when a
   trace file was requested; artefacts are written even if the command
   fails.  The metrics snapshot goes to stderr so it never mixes with a
   command's stdout (CSV rows, experiment reports). *)
let with_obs ~metrics ~trace_out f =
  if Option.is_some trace_out then Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun file ->
          Out_channel.with_open_text file Obs.Trace.write_jsonl;
          Printf.eprintf "wrote %s\n" file)
        trace_out;
      if metrics then
        prerr_endline (Obs.Metrics.to_json (Obs.Metrics.snapshot ())))
    f

(* --- cutoffs ------------------------------------------------------------ *)

let cutoffs_cmd =
  let run params p_star q =
    Printf.printf "Parameters: %s\n" (Swap.Params.to_string params);
    Printf.printf "P* = %g, Q = %g\n\n" p_star q;
    if q = 0. then begin
      Printf.printf "t3 cutoff (Eq. 18):   P_t3_low = %.4f\n"
        (Swap.Cutoff.p_t3_low params ~p_star);
      (match Swap.Cutoff.p_t2_band_endpoints params ~p_star with
      | Some (lo, hi) ->
        Printf.printf "t2 band (Eq. 24):     (%.4f, %.4f)\n" lo hi
      | None -> print_endline "t2 band: empty (Bob never continues)");
      match Swap.Cutoff.p_star_band_endpoints params with
      | Some (lo, hi) ->
        Printf.printf "feasible P* (Eq. 29): (%.4f, %.4f)\n" lo hi
      | None -> print_endline "feasible P*: empty (never initiated)"
    end
    else begin
      let c = Swap.Collateral.symmetric params ~q in
      Printf.printf "t3 cutoff (Eq. 34):   P_t3_low,c = %.4f\n"
        (Swap.Collateral.p_t3_low c ~p_star);
      Printf.printf "t2 set:               %s\n"
        (Swap.Intervals.to_string (Swap.Collateral.cont_set_t2 c ~p_star));
      Printf.printf "initiation set:       %s\n"
        (Swap.Intervals.to_string (Swap.Collateral.initiation_set c))
    end
  in
  Cmd.v
    (Cmd.info "cutoffs" ~doc:"Decision thresholds from backward induction.")
    Term.(const run $ params_term $ p_star_term $ q_term)

(* --- success-rate ------------------------------------------------------- *)

let success_cmd =
  let run params p_star q =
    let sr =
      if q = 0. then Swap.Success.analytic params ~p_star
      else
        Swap.Collateral.success_rate
          (Swap.Collateral.symmetric params ~q)
          ~p_star
    in
    Printf.printf "SR(P* = %g, Q = %g) = %.4f\n" p_star q sr
  in
  Cmd.v
    (Cmd.info "success-rate" ~doc:"Analytic success rate (Eq. 31 / Eq. 40).")
    Term.(const run $ params_term $ p_star_term $ q_term)

(* --- sweep --------------------------------------------------------------- *)

let sweep_cmd =
  let lo = Arg.(value & opt float 1.5 & info [ "lo" ] ~doc:"Lowest P*.") in
  let hi = Arg.(value & opt float 2.5 & info [ "hi" ] ~doc:"Highest P*.") in
  let n =
    Arg.(
      value & opt grid_points 21
      & info [ "n" ] ~doc:"Grid points (at least 2).")
  in
  let run params q lo hi n =
    let p_stars = Numerics.Grid.linspace ~lo ~hi ~n in
    Printf.printf "p_star,sr\n";
    Array.iter
      (fun p_star ->
        let sr =
          if q = 0. then Swap.Success.analytic params ~p_star
          else
            Swap.Collateral.success_rate
              (Swap.Collateral.symmetric params ~q)
              ~p_star
        in
        Printf.printf "%.6g,%.6g\n" p_star sr)
      p_stars
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"CSV of SR across exchange rates.")
    Term.(const run $ params_term $ q_term $ lo $ hi $ n)

(* --- simulate ------------------------------------------------------------ *)

let simulate_cmd =
  let trials =
    Arg.(
      value & opt positive_int 20000
      & info [ "trials" ] ~doc:"Monte-Carlo paths.")
  in
  let seed = Arg.(value & opt int 0x51ab & info [ "seed" ] ~doc:"RNG seed.") in
  let policy_name =
    Arg.(
      value
      & opt (enum [ ("rational", `Rational); ("honest", `Honest); ("myopic", `Myopic) ])
          `Rational
      & info [ "policy" ] ~doc:"Agent policy: rational, honest or myopic.")
  in
  let run params p_star q trials seed policy_name jobs metrics trace_out =
    with_obs ~metrics ~trace_out @@ fun () ->
    let result =
      if q > 0. then
        Swap.Montecarlo.run_collateral ~trials ~seed ?jobs
          (Swap.Collateral.symmetric params ~q)
          ~p_star
      else
        let policy =
          match policy_name with
          | `Rational -> Swap.Agent.rational params ~p_star
          | `Honest -> Swap.Agent.honest
          | `Myopic -> Swap.Agent.myopic params ~p_star
        in
        Swap.Montecarlo.run ~trials ~seed ?jobs params ~p_star ~policy
    in
    let lo, hi = result.Swap.Montecarlo.ci95 in
    Printf.printf "trials      %d\n" result.Swap.Montecarlo.trials;
    Printf.printf "initiated   %d\n" result.Swap.Montecarlo.initiated;
    Printf.printf "successes   %d\n" result.Swap.Montecarlo.successes;
    Printf.printf "aborts      t1=%d t2=%d t3=%d\n"
      result.Swap.Montecarlo.abort_t1 result.Swap.Montecarlo.abort_t2
      result.Swap.Montecarlo.abort_t3;
    Printf.printf "SR          %.4f  [%.4f, %.4f]\n" result.Swap.Montecarlo.rate
      lo hi;
    Printf.printf "mean U (A)  %.4f\n" result.Swap.Montecarlo.mean_utility_alice;
    Printf.printf "mean U (B)  %.4f\n" result.Swap.Montecarlo.mean_utility_bob
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Monte-Carlo simulation of the swap game.  Trials run in \
          fixed-size chunks on the domain pool with per-chunk RNG \
          streams, so the result is identical for any $(b,--jobs).")
    Term.(
      const run $ params_term $ p_star_term $ q_term $ trials $ seed
      $ policy_name $ jobs_term $ metrics_term $ trace_out_term)

(* --- protocol ------------------------------------------------------------ *)

let protocol_cmd =
  let reveal_delay =
    Arg.(
      value & opt float 0.
      & info [ "reveal-delay" ]
          ~doc:"Extra hours before Alice submits her claim (timing attack).")
  in
  let drop =
    Arg.(
      value & opt probability 0.
      & info [ "drop" ] ~doc:"Per-transaction drop probability (both chains).")
  in
  let delay_mean =
    Arg.(
      value & opt float 0.
      & info [ "delay-mean" ]
          ~doc:"Mean of the extra confirmation delay (h); 0 disables.")
  in
  let delay_prob =
    Arg.(
      value & opt probability 1.
      & info [ "delay-prob" ]
          ~doc:"Probability a transaction suffers the extra delay at all.")
  in
  let reorg =
    Arg.(
      value & opt probability 0.
      & info [ "reorg" ] ~doc:"Single-depth reorg probability (both chains).")
  in
  let halt =
    require
      (function
        | Some (h0, h1) -> Float.is_finite h0 && Float.is_finite h1 && h0 <= h1
        | None -> true)
      "--halt H0,H1 needs finite hours with H0 <= H1"
      Arg.(
        value
        & opt (some (pair ~sep:',' float float)) None
        & info [ "halt" ] ~docv:"H0,H1"
            ~doc:"Halt both chains over the window [H0, H1).")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ]
          ~doc:"Max submission attempts per action (1 = no resubmission).")
  in
  let backoff =
    require
      (fun b -> b >= 0.)
      "--backoff must be >= 0"
      Arg.(
        value & opt float 0.5
        & info [ "backoff" ] ~doc:"Initial resubmission backoff (h); doubles.")
  in
  let slack_t2 =
    Arg.(
      value & opt float 0.
      & info [ "slack-t2" ] ~doc:"Extra hours on Alice's lock leg (delay_t2).")
  in
  let slack_t3 =
    Arg.(
      value & opt float 0.
      & info [ "slack-t3" ] ~doc:"Extra hours on Bob's lock leg (delay_t3).")
  in
  let seed =
    Arg.(value & opt int 0xfeed & info [ "seed" ] ~doc:"Fault/secret RNG seed.")
  in
  let run params p_star q reveal_delay drop delay_mean delay_prob reorg halt
      retries backoff slack_t2 slack_t3 seed metrics trace_out =
    with_obs ~metrics ~trace_out @@ fun () ->
    let faults =
      let delay =
        if delay_mean > 0. then
          Chainsim.Faults.Shifted_exponential
            { mean = delay_mean; cap = 4. *. delay_mean }
        else Chainsim.Faults.No_extra_delay
      in
      let halts = match halt with Some w -> [ w ] | None -> [] in
      Chainsim.Faults.create ~drop_prob:drop ~delay_prob ~delay
        ~reorg_prob:reorg ~halts ()
    in
    let retry =
      if retries <= 1 then Swap.Agent.no_retry
      else Swap.Agent.make_retry ~backoff retries
    in
    let result =
      Swap.Protocol.run ~q ~reveal_delay ~seed ~faults_a:faults
        ~faults_b:faults ~retry ~delay_t2:slack_t2 ~delay_t3:slack_t3 params
        ~p_star
    in
    Printf.printf "outcome: %s\n" (Swap.Protocol.outcome_to_string result.Swap.Protocol.outcome);
    if not (Chainsim.Faults.is_none faults) then
      Printf.printf "faults:  %s\n" (Chainsim.Faults.to_string faults);
    print_newline ();
    List.iter
      (fun (t, msg) -> Printf.printf "  [%6.2f h] %s\n" t msg)
      result.Swap.Protocol.trace;
    Printf.printf "\nbalance changes:\n";
    Printf.printf "  alice: %+g Token_a, %+g Token_b\n"
      result.Swap.Protocol.alice_delta_a result.Swap.Protocol.alice_delta_b;
    Printf.printf "  bob:   %+g Token_a, %+g Token_b\n"
      result.Swap.Protocol.bob_delta_a result.Swap.Protocol.bob_delta_b;
    Printf.printf "secret observable at t4: %b\n"
      result.Swap.Protocol.secret_observed_at_t4;
    let t = result.Swap.Protocol.telemetry in
    Printf.printf "\ntelemetry:\n";
    Printf.printf "  submissions %d (retries %d)\n"
      (List.length t.Swap.Protocol.submissions)
      t.Swap.Protocol.retries;
    List.iter
      (fun (s : Swap.Protocol.submission) ->
        Printf.printf "    [%6.2f h] %-7s %-24s attempt %d -> %s\n"
          s.Swap.Protocol.submitted_at s.Swap.Protocol.chain
          s.Swap.Protocol.action s.Swap.Protocol.attempt
          (match s.Swap.Protocol.confirmed_at with
          | Some c -> Printf.sprintf "confirmed at %.2f h" c
          | None -> "never confirmed"))
      t.Swap.Protocol.submissions;
    let pr_stats name (f : Chainsim.Chain.fault_stats) =
      if
        f.Chainsim.Chain.dropped + f.Chainsim.Chain.delayed
        + f.Chainsim.Chain.reorged + f.Chainsim.Chain.halted
        > 0
      then
        Printf.printf
          "  %s faults: %d dropped, %d delayed (%.2f h extra), %d reorged, \
           %d halt-deferred\n"
          name f.Chainsim.Chain.dropped f.Chainsim.Chain.delayed
          f.Chainsim.Chain.extra_delay f.Chainsim.Chain.reorged
          f.Chainsim.Chain.halted
    in
    pr_stats "chain_a" t.Swap.Protocol.fault_stats_a;
    pr_stats "chain_b" t.Swap.Protocol.fault_stats_b;
    Printf.printf "  margin consumed: %.2f h on chain_a, %.2f h on chain_b\n"
      t.Swap.Protocol.margin_consumed_a t.Swap.Protocol.margin_consumed_b
  in
  Cmd.v
    (Cmd.info "protocol"
       ~doc:"Execute one swap end-to-end on the two-chain simulator, \
             optionally under injected chain faults.")
    Term.(
      const run $ params_term $ p_star_term $ q_term $ reveal_delay $ drop
      $ delay_mean $ delay_prob $ reorg $ halt $ retries $ backoff $ slack_t2
      $ slack_t3 $ seed $ metrics_term $ trace_out_term)

(* --- ac3 ------------------------------------------------------------------ *)

let ac3_cmd =
  let witness_crash =
    Arg.(
      value
      & opt (some float) None
      & info [ "witness-crash" ] ~doc:"Witness goes offline at this hour.")
  in
  let run params p_star witness_crash =
    Printf.printf "SR: HTLC %.4f vs AC3 %.4f\n"
      (Swap.Success.analytic params ~p_star)
      (Swap.Ac3.success_rate params ~p_star);
    (match Swap.Ac3.feasible_band params with
    | Some (lo, hi) -> Printf.printf "AC3 feasible P*: (%.4f, %.4f)\n" lo hi
    | None -> print_endline "AC3 feasible P*: none");
    let result =
      Swap.Ac3.run ?witness_offline_from:witness_crash params ~p_star
    in
    Printf.printf "\nwitness-protocol run: %s\n"
      (Swap.Ac3.outcome_to_string result.Swap.Ac3.outcome);
    List.iter
      (fun (t, msg) -> Printf.printf "  [%6.2f h] %s\n" t msg)
      result.Swap.Ac3.trace;
    Printf.printf "balance changes: alice %+g / %+g, bob %+g / %+g\n"
      result.Swap.Ac3.alice_delta_a result.Swap.Ac3.alice_delta_b
      result.Swap.Ac3.bob_delta_a result.Swap.Ac3.bob_delta_b
  in
  Cmd.v
    (Cmd.info "ac3"
       ~doc:"Witness-based atomic commitment (AC3TW-style) vs the HTLC.")
    Term.(const run $ params_term $ p_star_term $ witness_crash)

(* --- backtest --------------------------------------------------------------- *)

let backtest_cmd =
  let csv =
    Arg.(
      value
      & opt (some file) None
      & info [ "csv" ] ~doc:"CSV price series (time,price; hours).")
  in
  let days =
    Arg.(
      value & opt positive_int 60
      & info [ "days" ]
          ~doc:"Length of the synthetic regime-switching market when no CSV \
                is given.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Synthetic-market seed.") in
  let run params csv days seed =
    let path =
      match csv with
      | Some file -> (
        match Market.Csv.load file with
        | Ok p -> p
        | Error e ->
          Printf.eprintf "cannot read %s: %s\n" file e;
          exit 1)
      | None ->
        let rng = Numerics.Rng.create ~seed () in
        let steps = days * 48 in
        fst
          (Market.Regimes.sample rng Market.Regimes.default_spec
             ~p0:params.Swap.Params.p0 ~dt:0.5 ~steps)
    in
    let trades = Market.Backtest.run ~base:params path in
    let s = Market.Backtest.summarize trades in
    Printf.printf "trades            %d\n" s.Market.Backtest.trades;
    Printf.printf "skipped           %d\n" s.Market.Backtest.skipped;
    Printf.printf "initiated         %d\n" s.Market.Backtest.initiated;
    Printf.printf "succeeded         %d\n" s.Market.Backtest.succeeded;
    Printf.printf "realized SR       %.4f\n" s.Market.Backtest.realized_sr;
    Printf.printf "mean predicted SR %.4f\n" s.Market.Backtest.mean_predicted_sr
  in
  Cmd.v
    (Cmd.info "backtest"
       ~doc:"Walk-forward backtest on a CSV price series or a synthetic \
             regime-switching market.")
    Term.(const run $ params_term $ csv $ days $ seed)

(* --- experiment ---------------------------------------------------------- *)

let experiment_cmd =
  let which =
    Arg.(
      value & pos 0 string "list"
      & info [] ~docv:"ID"
          ~doc:"Experiment id (see 'list'), or 'all' to run every one.")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ]
          ~doc:"Also write the experiment's data series as CSV files into \
                this directory (experiments with natural series only).")
  in
  let write_datasets dir (e : Experiments.Registry.experiment) =
    match e.Experiments.Registry.datasets with
    | None -> ()
    | Some datasets ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun (filename, contents) ->
          let path = Filename.concat dir filename in
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc contents);
          Printf.eprintf "wrote %s\n" path)
        (datasets ())
  in
  let trials =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "trials" ] ~docv:"N"
          ~doc:
            "Override the Monte-Carlo trial count of every \
             simulation-based experiment (smaller = faster preview, \
             larger = tighter confidence intervals).")
  in
  let run which csv_dir jobs trials metrics trace_out =
    with_obs ~metrics ~trace_out @@ fun () ->
    Option.iter Numerics.Pool.set_jobs jobs;
    Swap.Montecarlo.set_trials_override trials;
    match which with
    | "list" ->
      List.iter
        (fun e ->
          Printf.printf "%-12s %s%s\n" e.Experiments.Registry.name
            e.Experiments.Registry.description
            (if e.Experiments.Registry.datasets <> None then " [csv]" else ""))
        Experiments.Registry.all
    | "all" ->
      print_string (Experiments.Registry.run_all ?jobs ());
      Option.iter
        (fun dir -> List.iter (write_datasets dir) Experiments.Registry.all)
        csv_dir
    | id -> (
      match Experiments.Registry.find id with
      | Some e ->
        print_string (e.Experiments.Registry.run ());
        Option.iter (fun dir -> write_datasets dir e) csv_dir
      | None ->
        Printf.eprintf "unknown experiment %S; try 'list'\n" id;
        exit 1)
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Regenerate a paper table/figure by id.  'all' fans the \
          experiments out over the domain pool (one per task); output \
          is identical for any $(b,--jobs).")
    Term.(
      const run $ which $ csv_dir $ jobs_term $ trials $ metrics_term
      $ trace_out_term)

(* --- quote ----------------------------------------------------------------- *)

let quote_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the quote as one machine-readable JSON object (schema \
             $(b,htlc-quote/v1)) instead of the human-readable lines.  A \
             feasibility gap shows up as null quote fields, not as an \
             error.")
  in
  let run params json =
    let optimal = Swap.Success.maximize params in
    let nash = Swap.Bargaining.nash_rate params in
    let band = Swap.Cutoff.p_star_band_endpoints params in
    if json then begin
      let n = Obs.Json.num in
      let optimal_json =
        match optimal with
        | Some { Swap.Success.p_star; sr } ->
          Printf.sprintf "{\"p_star\":%s,\"sr\":%s}" (n p_star) (n sr)
        | None -> "null"
      in
      let nash_json =
        match nash with
        | Some s ->
          Printf.sprintf
            "{\"p_star\":%s,\"alice_gain\":%s,\"bob_gain\":%s,\"sr\":%s}"
            (n s.Swap.Bargaining.p_star)
            (n s.Swap.Bargaining.alice_gain)
            (n s.Swap.Bargaining.bob_gain)
            (n
               (Swap.Success.analytic params
                  ~p_star:s.Swap.Bargaining.p_star))
        | None -> "null"
      in
      let band_json =
        match band with
        | Some (lo, hi) -> Printf.sprintf "[%s,%s]" (n lo) (n hi)
        | None -> "null"
      in
      Printf.printf
        "{\"schema\":\"htlc-quote/v1\",\"params\":%s,\"sr_optimal\":%s,\"nash\":%s,\"feasible_band\":%s}\n"
        (Serve.Request.params_json params)
        optimal_json nash_json band_json
    end
    else begin
      Printf.printf "Parameters: %s\n\n" (Swap.Params.to_string params);
      (match optimal with
      | Some { Swap.Success.p_star; sr } ->
        Printf.printf "SR-optimal quote:  P* = %.4f (SR = %.4f)\n" p_star sr
      | None -> print_endline "SR-optimal quote:  none (no feasible rate)");
      (match nash with
      | Some split ->
        Printf.printf
          "Nash bargain:      P* = %.4f (Alice +%.4f, Bob +%.4f, SR = %.4f)\n"
          split.Swap.Bargaining.p_star split.Swap.Bargaining.alice_gain
          split.Swap.Bargaining.bob_gain
          (Swap.Success.analytic params ~p_star:split.Swap.Bargaining.p_star)
      | None -> print_endline "Nash bargain:      no mutually profitable rate");
      match band with
      | Some (lo, hi) -> Printf.printf "Feasible rates:    (%.4f, %.4f)\n" lo hi
      | None -> print_endline "Feasible rates:    none"
    end
  in
  Cmd.v
    (Cmd.info "quote"
       ~doc:"Quote a swap: SR-optimal and Nash-bargained exchange rates.")
    Term.(const run $ params_term $ json_flag)

(* --- serve ----------------------------------------------------------------- *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve on a Unix-domain socket at $(docv) (until SIGINT or \
             SIGTERM).  Without this flag the server speaks \
             newline-delimited requests on stdin/stdout and exits at EOF.")
  in
  let cache_capacity =
    Arg.(
      value & opt positive_int 1024
      & info [ "cache-capacity" ] ~doc:"Result-cache entries (total).")
  in
  let cache_shards =
    Arg.(
      value & opt positive_int 8
      & info [ "cache-shards" ] ~doc:"Result-cache shard count.")
  in
  let max_sweep =
    Arg.(
      value & opt int 4096
      & info [ "max-sweep" ]
          ~doc:"Largest accepted sweep grid (larger answers invalid_params).")
  in
  let table_mus =
    Arg.(
      value & opt int 9
      & info [ "table-mus" ] ~docv:"N"
          ~doc:"Quote-table grid density along mu (default range, N nodes).")
  in
  let table_sigmas =
    Arg.(
      value & opt int 8
      & info [ "table-sigmas" ] ~docv:"N"
          ~doc:
            "Quote-table grid density along sigma (default range, N nodes).")
  in
  let shards =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Reactor event-loop domains multiplexing socket connections \
             (default: the jobs setting).  Pipe mode ignores this.")
  in
  let recorder_dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "recorder-dump" ] ~docv:"FILE"
          ~doc:
            "Arm the telemetry flight recorder's dump trigger: when a \
             request handler crashes (the request is answered \
             $(b,internal_error)) the last completed requests are \
             written to $(docv) as \
             $(b,htlc-obs/v1) JSONL — one recorder header line, then \
             one line per held request record.")
  in
  let sample_every =
    Arg.(
      value & opt positive_int 256
      & info [ "sample-every" ] ~docv:"N"
          ~doc:
            "Promote ~1/$(docv) of requests to full trace spans \
             (deterministic in the request id, so the sampled set is \
             identical at any shard count; $(b,1) = every \
             request).")
  in
  (* [Cache.create] also refuses a capacity below the shard count. *)
  let cache_sizes =
    let check capacity shards =
      if capacity < shards then
        `Error
          ( true,
            Printf.sprintf
              "--cache-capacity (%d) must be at least --cache-shards (%d)"
              capacity shards )
      else `Ok (capacity, shards)
    in
    Term.(ret (const check $ cache_capacity $ cache_shards))
  in
  let run params socket (cache_capacity, cache_shards) max_sweep table_mus
      table_sigmas shards recorder_dump sample_every jobs metrics trace_out =
    with_obs ~metrics ~trace_out @@ fun () ->
    Option.iter Numerics.Pool.set_jobs jobs;
    Serve.Telemetry.set_sample_every sample_every;
    Serve.Telemetry.set_dump_path recorder_dump;
    let mus =
      Numerics.Grid.linspace ~lo:(-0.01) ~hi:0.01 ~n:(max 2 table_mus)
    in
    let sigmas =
      Numerics.Grid.linspace ~lo:0.02 ~hi:0.16 ~n:(max 2 table_sigmas)
    in
    let engine =
      Serve.Engine.create ~cache_shards ~cache_capacity ~max_sweep_n:max_sweep
        ~mus ~sigmas ~base:params ()
    in
    (match socket with
    | None ->
      (* Pipe mode: synchronous, deterministic — the serve-smoke path. *)
      ignore (Serve.Server.serve_pipe engine stdin stdout)
    | Some path ->
      let server = Serve.Server.listen engine ~path ?shards () in
      let stop_requested = Atomic.make false in
      let request_stop _ = Atomic.set stop_requested true in
      Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
      Printf.eprintf "listening on %s (shards %d, cache %d)\n%!" path
        (Serve.Server.reactor_shards server)
        cache_capacity;
      while not (Atomic.get stop_requested) do
        Unix.sleepf 0.1
      done;
      Serve.Server.shutdown server);
    let s = Serve.Engine.stats engine in
    Printf.eprintf
      "served %d requests (%d ok, %d errors, %d parse errors, %d internal \
       errors; cache %d/%d/%d hit/miss/evict)\n"
      s.Serve.Engine.requests s.Serve.Engine.ok s.Serve.Engine.errors
      s.Serve.Engine.parse_errors s.Serve.Engine.internal_errors
      s.Serve.Engine.cache.Serve.Cache.hits
      s.Serve.Engine.cache.Serve.Cache.misses
      s.Serve.Engine.cache.Serve.Cache.evictions
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve cutoffs/success-rate/quote/sweep/route/health/stats \
          requests as a long-lived $(b,htlc-serve/v1) service: \
          newline-delimited JSON on stdin/stdout, or a Unix-domain socket \
          served by an event-driven reactor, both behind a sharded result \
          cache.  A crashed request handler answers $(b,internal_error) \
          and the server keeps serving.  The quote table is warm-built at \
          startup from the given base parameters.")
    Term.(
      const run $ params_term $ socket $ cache_sizes $ max_sweep $ table_mus
      $ table_sigmas $ shards $ recorder_dump $ sample_every $ jobs_term
      $ metrics_term $ trace_out_term)

(* --- call ------------------------------------------------------------------ *)

(* Human rendering of a stats response: latency and stage quantiles in
   microseconds, the rate window, recorder and trace health.  Parses
   with the strict JSON reader the validators share, so a shape drift
   in the server is reported instead of silently mis-tabulated. *)
let print_stats_table resp =
  let module J = Obs.Json_parse in
  let j = J.parse resp in
  (match J.as_str "status" (J.member "response" j "status") with
  | "ok" -> ()
  | status ->
    Printf.eprintf "stats request answered %S: %s\n" status resp;
    exit 1);
  let r = J.member "response" j "result" in
  let num path o key = J.as_num (path ^ "." ^ key) (J.member path o key) in
  let flag path o key = J.as_bool (path ^ "." ^ key) (J.member path o key) in
  let telemetry = J.member "result" r "telemetry" in
  let rate = J.member "result" r "rate" in
  Printf.printf "telemetry %s, tracing 1 in %.0f requests\n"
    (if flag "telemetry" telemetry "enabled" then "enabled" else "disabled")
    (num "telemetry" telemetry "sample_every");
  Printf.printf "rate      %.1f req/s over %.0f s window, %.0f finished total\n"
    (num "rate" rate "rps")
    (num "rate" rate "window_s")
    (num "rate" rate "total");
  let section title key =
    match J.as_obj key (J.member "result" r key) with
    | [] -> ()
    | rows ->
      Printf.printf "\n%s\n" title;
      Printf.printf "  %-22s %8s %9s %9s %9s %9s\n" "" "count" "p50_us"
        "p90_us" "p99_us" "p999_us";
      List.iter
        (fun (name, row) ->
          let path = key ^ "." ^ name in
          Printf.printf "  %-22s %8.0f %9.1f %9.1f %9.1f %9.1f\n" name
            (num path row "count") (num path row "p50_us")
            (num path row "p90_us") (num path row "p99_us")
            (num path row "p999_us"))
        rows
  in
  section "latency by kind.codec" "latency";
  section "stage breakdown" "stages";
  let recorder = J.member "result" r "recorder" in
  Printf.printf
    "\nrecorder  %.0f held (capacity %.0f), %.0f pushed, %.0f dropped\n"
    (num "recorder" recorder "recorded")
    (num "recorder" recorder "capacity")
    (num "recorder" recorder "pushed")
    (num "recorder" recorder "dropped");
  let trace = J.member "result" r "trace" in
  Printf.printf "trace     %s, %.0f spans buffered, %.0f dropped\n"
    (if flag "trace" trace "enabled" then "enabled" else "disabled")
    (num "trace" trace "spans")
    (num "trace" trace "dropped")

(* --- route ---------------------------------------------------------------- *)

let route_cmd =
  let from_tok =
    Arg.(
      required
      & opt (some string) None
      & info [ "from" ] ~docv:"TOKEN" ~doc:"Token sold (e.g. $(b,XMR)).")
  in
  let to_tok =
    Arg.(
      required
      & opt (some string) None
      & info [ "to" ] ~docv:"TOKEN" ~doc:"Token bought (e.g. $(b,USDC)).")
  in
  let max_hops =
    Arg.(
      value & opt int 4
      & info [ "max-hops" ] ~docv:"N"
          ~doc:"Largest number of swap legs considered (1-16).")
  in
  let run params from_tok to_tok max_hops metrics trace_out =
    with_obs ~metrics ~trace_out @@ fun () ->
    (* The same path a network client takes: encode a canonical route
       request, hand the line to the serve engine, print the response
       line.  The tiny quote grid keeps startup instant — route never
       touches it. *)
    let engine =
      Serve.Engine.create
        ~mus:(Numerics.Grid.linspace ~lo:(-0.01) ~hi:0.01 ~n:2)
        ~sigmas:(Numerics.Grid.linspace ~lo:0.02 ~hi:0.16 ~n:2)
        ~base:params ()
    in
    let line =
      Serve.Request.encode
        {
          Serve.Request.id = Some "cli-route";
          body = Serve.Request.Route { from_tok; to_tok; max_hops };
        }
    in
    print_endline (Serve.Engine.handle engine line)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Best multi-hop swap path between two tokens: the $(b,route) \
          request kind answered by the serve engine over its default \
          token universe (pairs priced by the 2-party solver).  Prints \
          the $(b,htlc-serve/v1) response line.")
    Term.(
      const run $ params_term $ from_tok $ to_tok $ max_hops $ metrics_term
      $ trace_out_term)

(* --- graph-sweep ----------------------------------------------------------- *)

let graph_sweep_cmd =
  let max_parties =
    require
      (fun n -> n >= 3)
      "--max-parties must be >= 3"
      Arg.(
        value & opt int 8
        & info [ "max-parties" ] ~docv:"N"
            ~doc:"Largest graph size generated per family (at least 3).")
  in
  let trials =
    Arg.(
      value & opt positive_int 2000
      & info [ "trials" ] ~docv:"N" ~doc:"Monte-Carlo paths per topology.")
  in
  let seed =
    Arg.(value & opt int 0x9af & info [ "seed" ] ~doc:"Monte-Carlo seed.")
  in
  let seeds =
    Arg.(
      value & opt int 5
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Random-family topologies generated per (size, slack).")
  in
  let slacks =
    Arg.(
      value
      & opt_all non_negative_float [ 0. ]
      & info [ "slack" ] ~docv:"H"
          ~doc:
            "Extra stagger per claim level, in hours (repeatable; the \
             sweep crosses every slack with every topology).")
  in
  let max_hops =
    Arg.(
      value & opt int 4
      & info [ "max-hops" ] ~docv:"N"
          ~doc:"Hop bound for the routed token-pair report.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the full sweep as an $(b,htlc-graph/v1) JSON document \
             to $(docv) (topologies with schedules and results, the \
             served token universe, and best routes for every ordered \
             token pair) instead of the summary table.")
  in
  let run params max_parties trials seed seeds slacks max_hops json_out jobs
      metrics trace_out =
    with_obs ~metrics ~trace_out @@ fun () ->
    Option.iter Numerics.Pool.set_jobs jobs;
    let slacks = List.sort_uniq compare slacks in
    let specs =
      List.concat_map
        (fun family ->
          List.concat_map
            (fun size ->
              List.concat_map
                (fun slack ->
                  let mk topo_seed =
                    { Swapgraph.Sweep.family; size; slack; topo_seed }
                  in
                  match family with
                  | Swapgraph.Topology.Random ->
                    List.init seeds mk
                  | Swapgraph.Topology.Bridge when size < 5 -> []
                  | _ -> [ mk 0 ])
                slacks)
            (List.init (max_parties - 2) (fun i -> i + 3)))
        Swapgraph.Topology.all_families
    in
    let rows =
      Swapgraph.Sweep.run ~trials ~seed ~tau:params.Swap.Params.tau_b
        ~eps:params.Swap.Params.eps_b
        ~policy:(Swap.Graphlink.depth_aware_policy params ~p_star:2.)
        ~payoffs:(Swap.Graphlink.payoffs params) specs
    in
    let griefing (r : Swapgraph.Sweep.row) =
      Array.fold_left Float.max 0.
        (Swap.Graphlink.griefing_value params r.graph r.schedule)
    in
    match json_out with
    | None ->
      let line (r : Swapgraph.Sweep.row) =
        [
          Swapgraph.Topology.family_to_string r.spec.Swapgraph.Sweep.family;
          string_of_int r.spec.Swapgraph.Sweep.size;
          Printf.sprintf "%g" r.spec.Swapgraph.Sweep.slack;
          string_of_int r.spec.Swapgraph.Sweep.topo_seed;
          Printf.sprintf "%.4f" r.sr;
          Printf.sprintf "%.2f" r.max_exposure_hours;
          Printf.sprintf "%.4f" (griefing r);
          (if r.equilibrium_success then "yes" else "no");
        ]
      in
      print_string
        (Experiments.Render.table
           ~header:
             [
               "family"; "parties"; "slack"; "seed"; "SR";
               "max exposure (h)"; "griefing"; "eq";
             ]
           ~rows:(List.map line rows))
    | Some file ->
      let b = Buffer.create 65536 in
      let n = Obs.Json.num and s = Obs.Json.str and i = Obs.Json.int in
      Buffer.add_string b "{\"schema\":\"htlc-graph/v1\",\"params\":";
      Buffer.add_string b (Serve.Request.params_json params);
      Buffer.add_string b ",\"topologies\":[";
      List.iteri
        (fun k (r : Swapgraph.Sweep.row) ->
          if k > 0 then Buffer.add_char b ',';
          let g = r.graph and sc = r.schedule in
          let arcs = Swapgraph.Graph.arcs g in
          Buffer.add_string b
            (Printf.sprintf
               "{\"family\":%s,\"n\":%s,\"slack\":%s,\"seed\":%s,\"leader\":%s,\"depths\":[%s],\"arcs\":[%s],\"sr\":%s,\"griefing\":%s,\"equilibrium_success\":%b}"
               (s
                  (Swapgraph.Topology.family_to_string
                     r.spec.Swapgraph.Sweep.family))
               (i r.spec.Swapgraph.Sweep.size)
               (n r.spec.Swapgraph.Sweep.slack)
               (i r.spec.Swapgraph.Sweep.topo_seed)
               (i (Swapgraph.Graph.leader g))
               (String.concat ","
                  (Array.to_list (Array.map i (Swapgraph.Graph.depths g))))
               (String.concat ","
                  (List.init (Array.length arcs) (fun j ->
                       Printf.sprintf
                         "{\"src\":%s,\"dst\":%s,\"lock\":%s,\"expiry\":%s}"
                         (i arcs.(j).Swapgraph.Graph.src)
                         (i arcs.(j).Swapgraph.Graph.dst)
                         (n sc.Swapgraph.Timelock.lock_time.(j))
                         (n sc.Swapgraph.Timelock.expiry.(j)))))
               (n r.sr) (n (griefing r)) r.equilibrium_success))
        rows;
      Buffer.add_string b "],\"universe\":[";
      let universe = Swap.Graphlink.default_universe ~base:params () in
      List.iteri
        (fun k (e : Swapgraph.Router.edge) ->
          if k > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"src\":%s,\"dst\":%s,\"sr\":%s,\"rate\":%s}"
               (s e.src) (s e.dst) (n e.sr) (n e.rate)))
        (Swapgraph.Router.edges universe);
      Buffer.add_string b "],\"routes\":[";
      let tokens = Swapgraph.Router.tokens universe in
      let first = ref true in
      List.iter
        (fun from_tok ->
          List.iter
            (fun to_tok ->
              if from_tok <> to_tok then begin
                if not !first then Buffer.add_char b ',';
                first := false;
                let found =
                  match
                    Swapgraph.Router.best universe ~from_tok ~to_tok
                      ~max_hops
                  with
                  | Ok { Swapgraph.Router.hops; sr; rate } ->
                    Printf.sprintf
                      "\"path\":[%s],\"hops\":%s,\"sr\":%s,\"rate\":%s"
                      (String.concat "," (List.map s hops))
                      (i (List.length hops - 1))
                      (n sr) (n rate)
                  | Error _ -> "\"path\":null"
                in
                Buffer.add_string b
                  (Printf.sprintf
                     "{\"from\":%s,\"to\":%s,\"max_hops\":%s,%s}" (s from_tok)
                     (s to_tok) (i max_hops) found)
              end)
            tokens)
        tokens;
      Buffer.add_string b "]}\n";
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc (Buffer.contents b));
      Printf.eprintf "wrote %s (%d topologies, %d routed pairs)\n" file
        (List.length rows)
        (List.length tokens * (List.length tokens - 1))
  in
  Cmd.v
    (Cmd.info "graph-sweep"
       ~doc:
         "Sweep generated N-party swap graphs (cycles, stars, bridges, \
          random connected digraphs) through the Herlihy timelock \
          assignment, the graph game and the depth-aware Monte Carlo; \
          report SR and griefing exposure per topology.  Pool-parallel \
          across topologies and bit-identical at any $(b,--jobs) count.")
    Term.(
      const run $ params_term $ max_parties $ trials $ seed $ seeds $ slacks
      $ max_hops $ json_out $ jobs_term $ metrics_term $ trace_out_term)

let call_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of a running $(b,swap_cli serve).")
  in
  let max_attempts =
    Arg.(
      value & opt positive_int 6
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:"Attempts per request before reporting it unavailable.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some positive_ms) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request wall deadline (including reconnects and backoff \
             sleeps) on the client side.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for the deterministic retry-backoff jitter.")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"N"
          ~doc:
            "Route the connection through the fault-injecting chaos \
             transport with this schedule seed (torn writes, truncated \
             responses, resets...) — exercises the retry path against a \
             real server.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Instead of reading request lines from stdin, send one \
             $(b,stats) request and pretty-print the server's live \
             telemetry: latency and stage quantiles, windowed req/s, \
             flight-recorder and trace-ring health.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "With $(b,--stats): print the raw response line unchanged \
             instead of the table.")
  in
  let run socket max_attempts deadline_ms seed chaos_seed stats json =
    let dialer =
      let d = Serve.Client.socket_dialer ~path:socket in
      match chaos_seed with
      | None -> d
      | Some cs -> Serve.Chaos.wrap (Serve.Chaos.plan ~seed:cs ()) d
    in
    let client =
      Serve.Client.create ~dialer ~max_attempts
        ?deadline_s:(Option.map (fun ms -> ms /. 1000.) deadline_ms)
        ~seed ()
    in
    let failures = ref 0 in
    if stats then begin
      (match
         Serve.Client.call client
           "{\"schema\":\"htlc-serve/v1\",\"id\":\"cli-stats\",\"req\":\"stats\"}"
       with
      | Ok resp ->
        if json then print_endline resp
        else (
          try print_stats_table resp
          with Obs.Json_parse.Bad msg ->
            Printf.eprintf "unexpected stats response shape (%s): %s\n" msg
              resp;
            incr failures)
      | Error e ->
        incr failures;
        Printf.eprintf "stats request failed: %s (%s, %d attempts)\n"
          e.Serve.Client.message e.Serve.Client.code e.Serve.Client.attempts)
    end
    else begin
      (try
         while true do
           let line = input_line stdin in
           if String.trim line <> "" then
             match Serve.Client.call client line with
             | Ok resp -> print_endline resp
             | Error e ->
               incr failures;
               Printf.printf
                 "{\"schema\":\"htlc-serve/v1\",\"id\":null,\"status\":\"error\",\"error\":%S,\"message\":%S,\"attempts\":%d}\n"
                 e.Serve.Client.code e.Serve.Client.message
                 e.Serve.Client.attempts
         done
       with End_of_file -> ());
      let s = Serve.Client.stats client in
      Printf.eprintf "%d calls, %d retries, %d reconnects, %d failures\n"
        s.Serve.Client.calls s.Serve.Client.retries s.Serve.Client.reconnects
        s.Serve.Client.failures
    end;
    Serve.Client.close client;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Drive a running $(b,swap_cli serve) socket with the resilient \
          client: read request lines from stdin, print each verified \
          response line to stdout.  Reconnects and retries (capped \
          exponential backoff, seeded jitter) through transport faults; \
          a response must echo the request id to count.  Exits nonzero \
          if any request ultimately failed.  With $(b,--stats) it sends \
          a single $(b,stats) request and renders the server's live \
          telemetry as a table ($(b,--json) passes the raw response \
          through).")
    Term.(
      const run $ socket $ max_attempts $ deadline_ms $ seed $ chaos_seed
      $ stats_flag $ json_flag)

(* --- obs ------------------------------------------------------------------ *)

let obs_cmd =
  let trials =
    Arg.(
      value & opt positive_int 5000
      & info [ "trials" ] ~doc:"Monte-Carlo paths in the probe workload.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the metrics snapshot to $(docv) instead of stdout.")
  in
  let prometheus =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Export the metrics snapshot in the Prometheus text \
             exposition format (counters as $(b,_total), histograms as \
             cumulative $(b,_bucket)/$(b,_sum)/$(b,_count) series) \
             instead of the one-line $(b,htlc-obs/v1) JSON.")
  in
  let run params p_star trials jobs metrics_out prometheus trace_out =
    (* A small fixed workload that touches every instrumented subsystem:
       the cutoff solver (cache misses then hits), a pooled Monte-Carlo
       run (chunk fan-out, spans), and one faulty protocol run with
       retries (chain fault counters, retry/crash events). *)
    Obs.Trace.set_enabled true;
    ignore (Swap.Cutoff.p_t2_band_endpoints params ~p_star);
    ignore (Swap.Cutoff.p_t2_band_endpoints params ~p_star);
    let policy = Swap.Agent.rational params ~p_star in
    let mc = Swap.Montecarlo.run ~trials ?jobs params ~p_star ~policy in
    let faults =
      Chainsim.Faults.create ~drop_prob:0.3 ~delay_prob:1.
        ~delay:(Chainsim.Faults.Shifted_exponential { mean = 0.5; cap = 2. })
        ~reorg_prob:0.2 ()
    in
    let proto =
      Swap.Protocol.run ~seed:0xfeed ~faults_a:faults ~faults_b:faults
        ~retry:Swap.Agent.default_retry ~delay_t2:2. ~delay_t3:2. params
        ~p_star
    in
    Printf.eprintf "workload: SR %.4f over %d trials; protocol %s\n"
      mc.Swap.Montecarlo.rate mc.Swap.Montecarlo.trials
      (Swap.Protocol.outcome_to_string proto.Swap.Protocol.outcome);
    let snap = Obs.Metrics.snapshot () in
    let rendered =
      if prometheus then Obs.Metrics.to_prometheus snap
      else Obs.Metrics.to_json snap ^ "\n"
    in
    (match metrics_out with
    | None -> print_string rendered
    | Some file ->
      Out_channel.with_open_text file (fun oc -> output_string oc rendered);
      Printf.eprintf "wrote %s\n" file);
    Option.iter
      (fun file ->
        Out_channel.with_open_text file Obs.Trace.write_jsonl;
        Printf.eprintf "wrote %s\n" file)
      trace_out
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Run a fixed probe workload (cutoffs, pooled Monte-Carlo, one \
          faulty protocol run) and export the $(b,htlc-obs/v1) metrics \
          snapshot and span trace ($(b,--prometheus) switches the \
          metrics rendering to the Prometheus text format).  Used by \
          the $(b,obs-smoke) CI check.")
    Term.(
      const run $ params_term $ p_star_term $ trials $ jobs_term
      $ metrics_out $ prometheus $ trace_out_term)

let main_cmd =
  let doc = "Game-theoretic analysis of cross-chain atomic swaps with HTLCs" in
  Cmd.group
    (Cmd.info "swap_cli" ~version:"1.0.0" ~doc)
    [
      cutoffs_cmd; success_cmd; sweep_cmd; simulate_cmd; protocol_cmd;
      ac3_cmd; backtest_cmd; quote_cmd; serve_cmd; route_cmd;
      graph_sweep_cmd; call_cmd; experiment_cmd; obs_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
