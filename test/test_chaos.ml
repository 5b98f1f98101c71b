(* Chaos invariant suite: thousands of protocol runs under randomized
   fault schedules, crash injections and schedule slack, with
   machine-checked invariants on every run:

   - token conservation: per-chain deltas sum to zero and no escrowed
     or vaulted funds are stranded once every deadline (plus the fault
     horizon) has passed — expired locks are eventually refunded;
   - anomaly provenance: atomicity violations appear only when a crash
     was injected or the fault layer actually interfered (dropped,
     delayed, reorged or halt-deferred at least one event);
   - determinism: replaying the same (seed, schedule) reproduces the
     identical outcome, trace and telemetry.

   The iteration count defaults to 500 and scales with the CHAOS_ITERS
   environment variable (e.g. CHAOS_ITERS=5000 for a soak run). *)

let p = Swap.Params.defaults

let iters =
  match Sys.getenv_opt "CHAOS_ITERS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 500)
  | None -> 500

(* One uniform draw stream per scenario, derived from the scenario
   index, so the suite is reproducible run to run. *)
let scenario i =
  let rng = Numerics.Rng.create ~seed:(0xc4a05 + (31 * i)) () in
  let u () = Numerics.Rng.uniform rng in
  let mk_faults () =
    if u () < 0.15 then Chainsim.Faults.none
    else
      let halts =
        if u () < 0.3 then
          let h0 = u () *. 12. in
          [ (h0, h0 +. (u () *. 5.)) ]
        else []
      in
      let delay =
        match Numerics.Rng.int_below rng 3 with
        | 0 -> Chainsim.Faults.No_extra_delay
        | 1 ->
          Chainsim.Faults.Shifted_exponential
            { mean = 0.2 +. (u () *. 2.); cap = 6. }
        | _ ->
          Chainsim.Faults.Bounded_pareto
            { alpha = 1.5 +. u (); scale = 0.3 +. u (); cap = 8. }
      in
      Chainsim.Faults.create ~drop_prob:(u () *. 0.4) ~delay_prob:(u ())
        ~delay ~reorg_prob:(u () *. 0.3) ~halts ()
  in
  let faults_a = mk_faults () and faults_b = mk_faults () in
  let slack = if u () < 0.5 then 0. else u () *. 5. in
  let bob_off = if u () < 0.25 then Some (u () *. 12.) else None in
  let alice_off =
    if bob_off = None && u () < 0.15 then Some (u () *. 12.) else None
  in
  let retry =
    if u () < 0.5 then Swap.Agent.default_retry else Swap.Agent.no_retry
  in
  (faults_a, faults_b, slack, alice_off, bob_off, retry, 0x0dd + (101 * i))

let run_scenario (faults_a, faults_b, slack, alice_off, bob_off, retry, seed) =
  Swap.Protocol.run ~faults_a ~faults_b ?alice_offline_from:alice_off
    ?bob_offline_from:bob_off ~retry ~delay_t2:slack ~delay_t3:slack ~seed p
    ~p_star:2.

let interference (t : Swap.Protocol.telemetry) =
  let busy (f : Chainsim.Chain.fault_stats) =
    f.Chainsim.Chain.dropped + f.Chainsim.Chain.delayed
    + f.Chainsim.Chain.reorged + f.Chainsim.Chain.halted
    > 0
  in
  busy t.Swap.Protocol.fault_stats_a || busy t.Swap.Protocol.fault_stats_b

let test_invariants () =
  let anomalies = ref 0 and successes = ref 0 in
  for i = 0 to iters - 1 do
    let ((_, _, _, alice_off, bob_off, _, _) as sc) = scenario i in
    let r = run_scenario sc in
    let ctx msg = Printf.sprintf "scenario %d: %s" i msg in
    if
      abs_float (r.Swap.Protocol.alice_delta_a +. r.Swap.Protocol.bob_delta_a)
      > 1e-9
      || abs_float
           (r.Swap.Protocol.alice_delta_b +. r.Swap.Protocol.bob_delta_b)
         > 1e-9
    then Alcotest.fail (ctx "per-chain token deltas must sum to zero");
    if
      abs_float r.Swap.Protocol.escrow_leftover_a > 1e-9
      || abs_float r.Swap.Protocol.escrow_leftover_b > 1e-9
    then
      Alcotest.fail
        (ctx "funds stranded in escrow past the horizon (missed refund)");
    (match r.Swap.Protocol.outcome with
    | Swap.Protocol.Anomalous _ ->
      incr anomalies;
      if
        alice_off = None && bob_off = None
        && not (interference r.Swap.Protocol.telemetry)
      then
        Alcotest.fail
          (ctx "anomaly without any crash or fault interference")
    | Swap.Protocol.Success -> incr successes
    | _ -> ())
  done;
  (* The generator must actually exercise both failure and success. *)
  Alcotest.(check bool)
    (Printf.sprintf "saw successes (%d) and anomalies (%d) in %d runs"
       !successes !anomalies iters)
    true
    (!successes > 0 && !anomalies > 0)

let test_determinism () =
  for i = 0 to (iters / 10) - 1 do
    let sc = scenario (7 * i) in
    let a = run_scenario sc and b = run_scenario sc in
    if
      a.Swap.Protocol.outcome <> b.Swap.Protocol.outcome
      || a.Swap.Protocol.trace <> b.Swap.Protocol.trace
      || a.Swap.Protocol.telemetry <> b.Swap.Protocol.telemetry
    then Alcotest.failf "scenario %d: replay diverged" (7 * i)
  done

let test_zero_intensity_is_seed_behaviour () =
  (* The fault layer off + retries off must reproduce the plain runner
     bit for bit — the chaos machinery is a strict superset. *)
  let plain = Swap.Protocol.run p ~p_star:2. in
  let gated =
    Swap.Protocol.run ~faults_a:Chainsim.Faults.none
      ~faults_b:Chainsim.Faults.none ~retry:Swap.Agent.no_retry ~delay_t2:0.
      ~delay_t3:0. p ~p_star:2.
  in
  Alcotest.(check bool) "same outcome" true
    (plain.Swap.Protocol.outcome = gated.Swap.Protocol.outcome);
  Alcotest.(check bool) "same trace" true
    (plain.Swap.Protocol.trace = gated.Swap.Protocol.trace);
  Alcotest.(check bool) "same telemetry" true
    (plain.Swap.Protocol.telemetry = gated.Swap.Protocol.telemetry)

(* The collateral Oracle's releases are the contract's own payouts, so
   drops cannot strand a deposit in the vault: every run under a lossy
   schedule settles with the vault empty, and a successful swap returns
   each agent's deposit (Table I deltas on chain_a). *)
let test_collateral_not_stranded_by_drops () =
  let lossy = Chainsim.Faults.create ~drop_prob:0.3 () in
  let q = 0.3 and p_star = 2. in
  let successes = ref 0 in
  for seed = 1 to 250 do
    let r =
      Swap.Protocol.run ~q ~faults_a:lossy ~faults_b:lossy
        ~retry:Swap.Agent.default_retry ~delay_t2:3. ~delay_t3:3. ~seed p
        ~p_star
    in
    let ctx msg =
      Printf.sprintf "seed %d (%s): %s" seed
        (Swap.Protocol.outcome_to_string r.Swap.Protocol.outcome)
        msg
    in
    if
      abs_float r.Swap.Protocol.escrow_leftover_a > 1e-9
      || abs_float r.Swap.Protocol.escrow_leftover_b > 1e-9
    then
      Alcotest.fail
        (ctx
           (Printf.sprintf "%g left in escrow or vault on chain_a"
              r.Swap.Protocol.escrow_leftover_a));
    if
      abs_float (r.Swap.Protocol.alice_delta_a +. r.Swap.Protocol.bob_delta_a)
      > 1e-9
    then Alcotest.fail (ctx "chain_a deltas must sum to zero");
    if r.Swap.Protocol.outcome = Swap.Protocol.Success then begin
      incr successes;
      if
        abs_float (r.Swap.Protocol.alice_delta_a +. p_star) > 1e-9
        || abs_float (r.Swap.Protocol.bob_delta_a -. p_star) > 1e-9
      then Alcotest.fail (ctx "a success must return both deposits")
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "saw successes (%d of 250)" !successes)
    true (!successes > 0)

let () =
  Alcotest.run "chaos"
    [
      ( "invariants",
        [
          Alcotest.test_case
            (Printf.sprintf "%d randomized schedules" iters)
            `Quick test_invariants;
          Alcotest.test_case "seed replay determinism" `Quick test_determinism;
          Alcotest.test_case "zero intensity = seed behaviour" `Quick
            test_zero_intensity_is_seed_behaviour;
          Alcotest.test_case "collateral not stranded by drops" `Quick
            test_collateral_not_stranded_by_drops;
        ] );
    ]
