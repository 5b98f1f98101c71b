(* Workload [simulate]: the simulation cross-checks.  Set-up builds the
   rational policy at a fixed set of seeded points; each op, at one of
   those points, runs a Monte-Carlo estimate of the SR and then executes
   the HTLC protocol on the simulated chains a fixed number of times,
   with retries and slack, under the chaos experiment's fault family.
   The thresholds are precomputed, so the analytic stack is idle and
   Rng, Montecarlo, Chainsim and Protocol do the work. *)

open Util

type point = {
  params : Swap.Params.t;
  p_star : float;
  policy : Swap.Agent.t;
  slack : float;
}

type state = {
  seed : int;
  points : point array;
  faults : Chainsim.Faults.t array;  (** one per seeded intensity *)
}

let n_points = 6
let mc_trials = 1024
let protocol_runs = 24
let intensities = 3

(* The chaos experiment's fault family at intensity kappa: drops, a
   proportional share of delayed confirmations and half as many
   reorgs. *)
let faults_of kappa =
  Chainsim.Faults.create ~drop_prob:kappa
    ~delay_prob:(min 1. (3. *. kappa))
    ~delay:(Chainsim.Faults.Shifted_exponential { mean = 1.5; cap = 6. })
    ~reorg_prob:(kappa /. 2.) ()

(* Points near Table III, so the cost of an op varies little between
   seeds; the slack leaves room for at least one resubmission. *)
let gen_point rng =
  let d = Swap.Params.defaults in
  let sigma = d.sigma *. uniform rng 0.95 1.05 in
  let mu = d.mu *. uniform rng 0.9 1.1 in
  let p_star = uniform rng 1.9 2.1 in
  let slack = uniform rng 4.5 6.5 in
  (Swap.Params.create ~mu ~sigma (), p_star, slack)

let setup ?sp ~seed () =
  Swap.Cutoff.clear_caches ();
  let rng = Numerics.Rng.of_stream ~seed ~stream:1 () in
  let points =
    Array.init n_points (fun _ ->
        let params, p_star, slack = gen_point rng in
        let policy =
          Spans.opt sp "agent.rational" (fun () -> Swap.Agent.rational params ~p_star)
        in
        { params; p_star; policy; slack })
  in
  let faults =
    Array.init intensities (fun k ->
        faults_of (uniform rng (0.04 +. (0.06 *. float_of_int k)) (0.06 +. (0.06 *. float_of_int k))))
  in
  { seed; points; faults }

(* Per-op seeds are a pure function of (run seed, op index). *)
let op_seed st i = (st.seed * 1_000_003) + (7919 * i)

let hours = Array.init 48 (fun h -> float_of_int (h + 1))

(* One protocol run: a GBM price path sampled hourly from the run's own
   stream, decisions by the point's rational policy. *)
let protocol_run ?sp pt ~faults ~seed =
  let rng = Numerics.Rng.create ~seed () in
  let values =
    Stochastic.Gbm.sample_path rng (Swap.Params.gbm pt.params) ~p0:pt.params.p0 ~times:hours
  in
  let path =
    Stochastic.Path.create ~times:(Array.append [| 0. |] hours)
      ~values:(Array.append [| pt.params.p0 |] values)
  in
  Spans.opt sp "protocol.run" (fun () ->
      Swap.Protocol.run ~policy:pt.policy
        ~price:(fun t -> Stochastic.Path.at path t)
        ~faults_a:faults ~faults_b:faults ~retry:Swap.Agent.default_retry ~delay_t2:pt.slack
        ~delay_t3:pt.slack ~seed pt.params ~p_star:pt.p_star)

type tally = {
  mutable runs : int;
  mutable retries : int;
  mutable anomalous : int;
}

let new_tally () = { runs = 0; retries = 0; anomalous = 0 }

(* Op [i]: point [i mod n_points]; one Monte-Carlo run, then the
   protocol runs, each under intensity [run mod intensities], so every
   op is the same composite.  Returns false when a run strands escrow. *)
let op ?sp st tally i =
  let pt = st.points.(i mod n_points) in
  let seed = op_seed st i in
  let mc =
    Spans.opt sp "montecarlo.run" (fun () ->
        Swap.Montecarlo.run ~trials:mc_trials ~seed ~jobs:1 pt.params ~p_star:pt.p_star
          ~policy:pt.policy)
  in
  let ok = ref true in
  for r = 0 to protocol_runs - 1 do
    let res = protocol_run ?sp pt ~faults:st.faults.(r mod intensities) ~seed:(seed + r) in
    tally.runs <- tally.runs + 1;
    tally.retries <- tally.retries + res.telemetry.retries;
    (match res.outcome with Swap.Protocol.Anomalous _ -> tally.anomalous <- tally.anomalous + 1 | _ -> ());
    if Float.abs res.escrow_leftover_a > 1e-9 || Float.abs res.escrow_leftover_b > 1e-9 then
      ok := false
  done;
  (mc, !ok)

(* A sampled op's Monte-Carlo result must replay bit for bit from its
   seed. *)
let replay_matches st i mc =
  let pt = st.points.(i mod n_points) in
  compare mc
    (Swap.Montecarlo.run ~trials:mc_trials ~seed:(op_seed st i) ~jobs:1 pt.params
       ~p_star:pt.p_star ~policy:pt.policy)
  = 0

(* Set-up plus the warm pass: one op per point. *)
let setup_warm ?sp ~seed () =
  let st = setup ?sp ~seed () in
  for i = 0 to n_points - 1 do
    ignore (op st (new_tally ()) i)
  done;
  st

let replay_every = 97

(* Closed loop for [seconds].  Every [replay_every]-th op keeps its
   Monte-Carlo result, replayed after the loop; [tamper] lets the gate
   self-test corrupt one before the replay. *)
let run_phase ?sp ?(tamper = fun _ mc -> mc) st ph tally ~seconds =
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  start_slices ph;
  let kept = ref [] in
  while now_ns () < deadline do
    let i = ph.ops in
    (match sp with Some s -> Spans.set_op s i | None -> ());
    let t0 = now_ns () in
    let r = try Some (op ?sp st tally i) with _ -> None in
    let t1 = now_ns () in
    (match r with
    | Some (mc, true) -> if i mod replay_every = 0 then kept := (i, tamper i mc) :: !kept
    | _ -> ph.failed <- ph.failed + 1);
    completed ph t1 ~lat_us:(float_of_int (t1 - t0) *. 1e-3)
  done;
  ph.wall_s <- ph.wall_s +. elapsed_s t_start;
  List.iter (fun (i, mc) -> if not (replay_matches st i mc) then ph.failed <- ph.failed + 1) !kept

let run ~seed ~seconds =
  let t0 = now_ns () in
  let st = setup_warm ~seed () in
  let setup_s = elapsed_s t0 in
  let ph = new_phase () in
  run_phase st ph (new_tally ()) ~seconds;
  end_to_end ph ~setup_s

(* --- traced run ---------------------------------------------------------- *)

let events = Obs.Metrics.counter "chain.events_executed"

(* The counts are taken over a fixed prefix of ops, so they are exact
   for a given seed whatever the host's speed. *)
let count_ops = 3 * n_points

let traced ~seed ~seconds =
  let sp = Spans.create () in
  Spans.set_op sp (-1);
  let st = setup_warm ~sp ~seed () in
  let tally = new_tally () in
  let e0 = Obs.Metrics.counter_value events in
  let prefix_failed = ref 0 in
  for i = 0 to count_ops - 1 do
    if not (snd (op st tally i)) then incr prefix_failed
  done;
  let ev = Obs.Metrics.counter_value events - e0 in
  let rng = Numerics.Rng.create ~seed () in
  let sink = ref 0. in
  let normal_ns =
    Spans.per_call_ns sp "rng.normal[x1000]" ~batches:200 ~per_batch:1000 (fun () ->
        for _ = 1 to 1000 do
          sink := !sink +. Numerics.Rng.normal rng
        done)
  in
  if not (Float.is_finite !sink) then print_endline "simulate: rng checksum not finite";
  let plain, tr, overhead =
    alternate ~seconds ~block:0.5 (fun ~traced ph ~seconds ->
        run_phase ?sp:(if traced then Some sp else None) st ph (new_tally ()) ~seconds)
  in
  let agg = Spans.aggregate sp in
  let rows =
    [
      rung "rng.normal_ns" "ns" normal_ns;
      rung "montecarlo.trial_ns" "ns"
        (Spans.median_ns agg "montecarlo.run" /. float_of_int mc_trials);
      rung "protocol.run_us" "us" (Spans.median_ns agg "protocol.run" *. 1e-3);
      rung "agent.policy_build_ms" "ms" (Spans.median_ns agg "agent.rational" *. 1e-6);
    ]
  in
  print_table "simulate ladder (median per call)" rows;
  let runs = float_of_int tally.runs in
  Printf.printf "  over the first %d ops (%d protocol runs): %d events, %d retries, %d anomalous; \
                 tracing overhead %.2f%% of ops/s\n"
    count_ops tally.runs ev tally.retries tally.anomalous overhead;
  ( sp,
    {
      attempted = count_ops + plain.ops + tr.ops;
      failed = !prefix_failed + plain.failed + tr.failed;
      metrics =
        metrics_of_rungs rows
        @ [
            metric "chain.events_per_run" "count" (float_of_int ev /. runs);
            metric "protocol.retries_per_run" "count" (float_of_int tally.retries /. runs);
            metric "protocol.anomalous_frac" "ratio" (float_of_int tally.anomalous /. runs);
            metric "trace.overhead_pct.simulate" "%" overhead;
          ];
    } )
