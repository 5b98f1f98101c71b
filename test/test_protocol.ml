(* Tests for the execution layer: agent policies, the end-to-end
   protocol runner on the chain simulator, Monte-Carlo consistency with
   the analytic model, and the game-tree cross-check. *)

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

let p = Swap.Params.defaults

(* --- Agent policies ------------------------------------------------------- *)

let test_rational_policy_matches_cutoffs () =
  let p_star = 2. in
  let policy = Swap.Agent.rational p ~p_star in
  let k3 = Swap.Cutoff.p_t3_low p ~p_star in
  Alcotest.(check bool) "cont above cutoff" true
    (policy.Swap.Agent.alice_t3 ~p_t3:(k3 +. 0.01) = Swap.Agent.Cont);
  Alcotest.(check bool) "stop below cutoff" true
    (policy.Swap.Agent.alice_t3 ~p_t3:(k3 -. 0.01) = Swap.Agent.Stop);
  Alcotest.(check bool) "stop at cutoff (Eq. 19 tie)" true
    (policy.Swap.Agent.alice_t3 ~p_t3:k3 = Swap.Agent.Stop);
  (match Swap.Cutoff.p_t2_band_endpoints p ~p_star with
  | Some (lo, hi) ->
    Alcotest.(check bool) "bob cont inside" true
      (policy.Swap.Agent.bob_t2 ~p_t2:(0.5 *. (lo +. hi)) = Swap.Agent.Cont);
    Alcotest.(check bool) "bob stop below" true
      (policy.Swap.Agent.bob_t2 ~p_t2:(lo *. 0.9) = Swap.Agent.Stop);
    Alcotest.(check bool) "bob stop above" true
      (policy.Swap.Agent.bob_t2 ~p_t2:(hi *. 1.1) = Swap.Agent.Stop)
  | None -> Alcotest.fail "band expected");
  Alcotest.(check bool) "initiates inside feasible band" true
    (policy.Swap.Agent.alice_t1 ~p_star = Swap.Agent.Cont);
  Alcotest.(check bool) "t4 always claims" true
    (policy.Swap.Agent.bob_t4 = Swap.Agent.Cont)

let test_rational_rejects_bad_rate () =
  let policy = Swap.Agent.rational p ~p_star:5. in
  Alcotest.(check bool) "won't initiate an absurd rate" true
    (policy.Swap.Agent.alice_t1 ~p_star:5. = Swap.Agent.Stop)

let test_honest_and_myopic () =
  Alcotest.(check bool) "honest always" true
    (Swap.Agent.honest.Swap.Agent.bob_t2 ~p_t2:1e9 = Swap.Agent.Cont);
  let myopic = Swap.Agent.myopic p ~p_star:2. in
  Alcotest.(check bool) "myopic bob balks at high price" true
    (myopic.Swap.Agent.bob_t2 ~p_t2:2.5 = Swap.Agent.Stop);
  Alcotest.(check bool) "myopic alice balks at low price" true
    (myopic.Swap.Agent.alice_t3 ~p_t3:1.9 = Swap.Agent.Stop)

(* --- Protocol runner --------------------------------------------------------- *)

let test_protocol_success_table1 () =
  let r = Swap.Protocol.run p ~p_star:2. in
  Alcotest.(check string) "outcome" "success"
    (Swap.Protocol.outcome_to_string r.Swap.Protocol.outcome);
  check_float "alice -P* on a" (-2.) r.Swap.Protocol.alice_delta_a;
  check_float "alice +1 on b" 1. r.Swap.Protocol.alice_delta_b;
  check_float "bob +P* on a" 2. r.Swap.Protocol.bob_delta_a;
  check_float "bob -1 on b" (-1.) r.Swap.Protocol.bob_delta_b;
  Alcotest.(check bool) "secret seen at t4" true
    r.Swap.Protocol.secret_observed_at_t4

let test_protocol_abort_paths_are_atomic () =
  let scenarios =
    [
      ( "t1",
        { Swap.Agent.honest with alice_t1 = (fun ~p_star:_ -> Swap.Agent.Stop) },
        Swap.Protocol.Abort_t1 );
      ( "t2",
        { Swap.Agent.honest with bob_t2 = (fun ~p_t2:_ -> Swap.Agent.Stop) },
        Swap.Protocol.Abort_t2 );
      ( "t3",
        { Swap.Agent.honest with alice_t3 = (fun ~p_t3:_ -> Swap.Agent.Stop) },
        Swap.Protocol.Abort_t3 );
    ]
  in
  List.iter
    (fun (label, policy, expected) ->
      let r = Swap.Protocol.run p ~policy ~p_star:2. in
      if r.Swap.Protocol.outcome <> expected then
        Alcotest.failf "%s: wrong outcome %s" label
          (Swap.Protocol.outcome_to_string r.Swap.Protocol.outcome);
      check_float (label ^ " alice a") 0. r.Swap.Protocol.alice_delta_a;
      check_float (label ^ " alice b") 0. r.Swap.Protocol.alice_delta_b;
      check_float (label ^ " bob a") 0. r.Swap.Protocol.bob_delta_a;
      check_float (label ^ " bob b") 0. r.Swap.Protocol.bob_delta_b)
    scenarios

let test_protocol_late_reveal_fails_safe () =
  (* Alice reveals after the window: the swap fails, but atomically —
     nobody ends up with both assets. *)
  let r = Swap.Protocol.run p ~reveal_delay:2. ~p_star:2. in
  (match r.Swap.Protocol.outcome with
  | Swap.Protocol.Abort_t3 -> ()
  | Swap.Protocol.Anomalous _ ->
    (* Acceptable only if someone gained and lost symmetrically; the
       equal-expiry schedule of Eq. 13 should prevent this entirely. *)
    Alcotest.fail "equal-deadline schedule must not produce anomalies"
  | other ->
    Alcotest.failf "unexpected outcome %s"
      (Swap.Protocol.outcome_to_string other));
  check_float "alice whole" 0. r.Swap.Protocol.alice_delta_a;
  check_float "bob whole" 0. r.Swap.Protocol.bob_delta_b

let test_protocol_collateral_success_neutral () =
  let r = Swap.Protocol.run ~q:1. p ~p_star:2. in
  Alcotest.(check string) "outcome" "success"
    (Swap.Protocol.outcome_to_string r.Swap.Protocol.outcome);
  (* Deposits returned: deltas match Table I exactly. *)
  check_float "alice a" (-2.) r.Swap.Protocol.alice_delta_a;
  check_float "bob a" 2. r.Swap.Protocol.bob_delta_a

let test_protocol_collateral_punishes_bob () =
  let policy =
    { Swap.Agent.honest with bob_t2 = (fun ~p_t2:_ -> Swap.Agent.Stop) }
  in
  let r = Swap.Protocol.run ~q:1. p ~policy ~p_star:2. in
  (* Bob forfeits his deposit to Alice. *)
  check_float "alice gains q" 1. r.Swap.Protocol.alice_delta_a;
  check_float "bob loses q" (-1.) r.Swap.Protocol.bob_delta_a;
  check_float "bob keeps token b" 0. r.Swap.Protocol.bob_delta_b

let test_protocol_collateral_punishes_alice () =
  let policy =
    { Swap.Agent.honest with alice_t3 = (fun ~p_t3:_ -> Swap.Agent.Stop) }
  in
  let r = Swap.Protocol.run ~q:1. p ~policy ~p_star:2. in
  check_float "alice loses q" (-1.) r.Swap.Protocol.alice_delta_a;
  check_float "bob gains q" 1. r.Swap.Protocol.bob_delta_a

let test_protocol_on_price_path () =
  (* A crash between t2 and t3: honest Alice completes anyway, rational
     Alice walks away at t3. *)
  let times = [| 0.1; 3.; 7.; 20. |] in
  let values = [| 2.; 2.; 0.5; 0.5 |] in
  let path = Stochastic.Path.create ~times ~values in
  let price = Stochastic.Path.at path in
  let honest_run =
    Swap.Protocol.run ~policy:Swap.Agent.honest p ~p_star:2. ~price
  in
  let rational = Swap.Agent.rational p ~p_star:2. in
  let rational_run = Swap.Protocol.run ~policy:rational p ~p_star:2. ~price in
  Alcotest.(check string) "honest completes regardless" "success"
    (Swap.Protocol.outcome_to_string honest_run.Swap.Protocol.outcome);
  Alcotest.(check string) "rational alice aborts after crash" "abort@t3"
    (Swap.Protocol.outcome_to_string rational_run.Swap.Protocol.outcome)

let test_protocol_bob_deviations_caught () =
  (* Section II-B: Alice verifies Bob's contract before revealing; any
     deviation must make her withhold the secret, and the swap must
     fail atomically. *)
  List.iter
    (fun (label, deviation) ->
      let r = Swap.Protocol.run ~bob_deviation:deviation p ~p_star:2. in
      (match r.Swap.Protocol.outcome with
      | Swap.Protocol.Abort_t3 -> ()
      | other ->
        Alcotest.failf "%s: expected abort@t3, got %s" label
          (Swap.Protocol.outcome_to_string other));
      check_float (label ^ ": alice whole on a") 0. r.Swap.Protocol.alice_delta_a;
      check_float (label ^ ": alice gains nothing on b") 0.
        r.Swap.Protocol.alice_delta_b;
      check_float (label ^ ": bob keeps token b") 0. r.Swap.Protocol.bob_delta_b;
      Alcotest.(check bool)
        (label ^ ": secret never leaked") false
        r.Swap.Protocol.secret_observed_at_t4)
    [
      ("wrong hash", Swap.Protocol.Wrong_hash);
      ("short amount", Swap.Protocol.Short_amount 0.7);
      ("early expiry", Swap.Protocol.Early_expiry 2.);
    ]

let test_protocol_marginal_early_expiry_tolerated () =
  (* An expiry that still leaves the full claim window is conforming:
     t_b - t3 = tau_b = 4 under defaults, so shaving 0 h is fine. *)
  let r = Swap.Protocol.run ~bob_deviation:(Swap.Protocol.Early_expiry 0.) p
      ~p_star:2.
  in
  Alcotest.(check string) "still succeeds" "success"
    (Swap.Protocol.outcome_to_string r.Swap.Protocol.outcome)

let test_protocol_trace_and_receipts () =
  let r = Swap.Protocol.run p ~p_star:2. in
  Alcotest.(check bool) "trace nonempty" true (List.length r.Swap.Protocol.trace >= 4);
  let failed_b =
    List.filter
      (fun (x : Chainsim.Chain.receipt) -> Result.is_error x.Chainsim.Chain.result)
      r.Swap.Protocol.receipts_b
  in
  Alcotest.(check int) "no failed chain_b operations" 0 (List.length failed_b)

(* --- Crash failures --------------------------------------------------------------- *)

let test_crash_alice_is_atomic () =
  List.iter
    (fun at ->
      let r = Swap.Protocol.run ~alice_offline_from:at p ~p_star:2. in
      (match r.Swap.Protocol.outcome with
      | Swap.Protocol.Anomalous _ ->
        Alcotest.failf "alice crash at %g must stay atomic" at
      | _ -> ());
      check_float "a-chain zero sum" 0.
        (r.Swap.Protocol.alice_delta_a +. r.Swap.Protocol.bob_delta_a))
    [ 0.; 1.5; 5. ]

let test_crash_bob_after_lock_violates_atomicity () =
  (* The Zakhary et al. violation: Bob offline while Alice reveals. *)
  let r = Swap.Protocol.run ~bob_offline_from:7.5 p ~p_star:2. in
  (match r.Swap.Protocol.outcome with
  | Swap.Protocol.Anomalous _ -> ()
  | other ->
    Alcotest.failf "expected anomaly, got %s"
      (Swap.Protocol.outcome_to_string other));
  (* Alice ends with both assets' value; Bob with neither. *)
  check_float "alice keeps her Token_a (refund)" 0.
    r.Swap.Protocol.alice_delta_a;
  check_float "alice also has Token_b" 1. r.Swap.Protocol.alice_delta_b;
  check_float "bob got no Token_a" 0. r.Swap.Protocol.bob_delta_a;
  check_float "bob lost his Token_b" (-1.) r.Swap.Protocol.bob_delta_b

let test_crash_bob_early_is_atomic () =
  let r = Swap.Protocol.run ~bob_offline_from:1. p ~p_star:2. in
  Alcotest.(check string) "no HTLC deployed" "abort@t2"
    (Swap.Protocol.outcome_to_string r.Swap.Protocol.outcome);
  check_float "alice whole" 0. r.Swap.Protocol.alice_delta_a

let test_transient_outage_back_before_t4 () =
  (* Bob drops out after Alice reveals but recovers before his claim
     window: the swap completes as if nothing happened. *)
  let r =
    Swap.Protocol.run ~bob_offline_from:7.5 ~bob_online_again_at:7.9 p
      ~p_star:2.
  in
  Alcotest.(check string) "completes" "success"
    (Swap.Protocol.outcome_to_string r.Swap.Protocol.outcome)

let test_transient_outage_back_too_late_without_slack () =
  (* On the ideal schedule t_lock_a = t4 + tau_a exactly, so a recovery
     after t4 leaves no margin: the late claim cannot confirm in time. *)
  let r =
    Swap.Protocol.run ~bob_offline_from:7.5 ~bob_online_again_at:9. p
      ~p_star:2.
  in
  match r.Swap.Protocol.outcome with
  | Swap.Protocol.Anomalous _ -> ()
  | other ->
    Alcotest.failf "zero-margin recovery must still violate atomicity: %s"
      (Swap.Protocol.outcome_to_string other)

let test_transient_outage_slack_buys_recovery () =
  (* Two hours of slack on the t_lock_a leg: Bob back at 11 claims and
     confirms at 14 <= t_lock_a = 15. *)
  let r =
    Swap.Protocol.run ~bob_offline_from:9.5 ~bob_online_again_at:11.
      ~delay_t2:2. p ~p_star:2.
  in
  Alcotest.(check string) "slack absorbs the outage" "success"
    (Swap.Protocol.outcome_to_string r.Swap.Protocol.outcome);
  check_float "bob paid" 2. r.Swap.Protocol.bob_delta_a

(* --- Resilience under injected faults ------------------------------------------ *)

let lossy =
  Chainsim.Faults.create ~drop_prob:0.25
    ~delay:(Chainsim.Faults.Shifted_exponential { mean = 1.; cap = 4. })
    ()

let test_retry_flips_outcomes () =
  (* Resubmission must matter: many seeds that fail under no_retry
     succeed once the agents re-post dropped transactions into a
     slackened schedule.  (A resubmission consumes a tx id, which
     re-rolls the fates of later transactions on that chain, so a few
     individual seeds can flip the other way — but on net retrying must
     win clearly.) *)
  let outcome retry seed =
    (Swap.Protocol.run ~faults_a:lossy ~faults_b:lossy ~retry ~delay_t2:4.
       ~delay_t3:4. ~seed p ~p_star:2.)
      .Swap.Protocol.outcome
  in
  let rescued = ref 0 and broken = ref 0 in
  for seed = 0 to 99 do
    let bare = outcome Swap.Agent.no_retry seed in
    let retried = outcome Swap.Agent.default_retry seed in
    if bare <> Swap.Protocol.Success && retried = Swap.Protocol.Success then
      incr rescued;
    if bare = Swap.Protocol.Success && retried <> Swap.Protocol.Success then
      incr broken
  done;
  Alcotest.(check bool)
    (Printf.sprintf "retries rescued %d and broke %d of 100 runs" !rescued
       !broken)
    true
    (!rescued > 0 && !rescued > 2 * !broken)

let test_protocol_deterministic_under_faults () =
  let play () =
    Swap.Protocol.run ~faults_a:lossy ~faults_b:lossy
      ~retry:Swap.Agent.default_retry ~delay_t2:2. ~delay_t3:2. ~seed:1234 p
      ~p_star:2.
  in
  let a = play () and b = play () in
  Alcotest.(check bool) "same outcome" true
    (a.Swap.Protocol.outcome = b.Swap.Protocol.outcome);
  Alcotest.(check bool) "same trace" true
    (a.Swap.Protocol.trace = b.Swap.Protocol.trace);
  Alcotest.(check bool) "same receipts" true
    (List.map
       (fun (r : Chainsim.Chain.receipt) ->
         (r.Chainsim.Chain.time, Chainsim.Chain.describe r))
       a.Swap.Protocol.receipts_a
    = List.map
        (fun (r : Chainsim.Chain.receipt) ->
          (r.Chainsim.Chain.time, Chainsim.Chain.describe r))
        b.Swap.Protocol.receipts_a);
  Alcotest.(check bool) "same telemetry" true
    (a.Swap.Protocol.telemetry = b.Swap.Protocol.telemetry)

(* A faulty run as the simulate benchmark makes them: rational
   decisions on an hourly GBM path, drops, delays and reorgs on both
   chains, retries into slack.  A run logs into a plain list, records
   receipts without text and reads its leftover from three balances:
   ~2030 words a run here.  The bound fails if a run goes back to a
   per-run event sink, receipt text on every event and a sorted scan
   of every account (~2800 words together). *)
let test_protocol_allocation () =
  let p_star = 2. in
  let policy = Swap.Agent.rational p ~p_star in
  let faults =
    Chainsim.Faults.create ~drop_prob:0.1 ~delay_prob:0.3
      ~delay:(Chainsim.Faults.Shifted_exponential { mean = 1.5; cap = 6. })
      ~reorg_prob:0.05 ()
  in
  let hours = Array.init 48 (fun h -> float_of_int (h + 1)) in
  let path =
    Stochastic.Path.create
      ~times:(Array.append [| 0. |] hours)
      ~values:
        (Array.append [| p.Swap.Params.p0 |]
           (Stochastic.Gbm.sample_path (Numerics.Rng.create ~seed:5 ())
              (Swap.Params.gbm p) ~p0:p.Swap.Params.p0 ~times:hours))
  in
  let run seed =
    Swap.Protocol.run ~policy
      ~price:(fun t -> Stochastic.Path.at path t)
      ~faults_a:faults ~faults_b:faults ~retry:Swap.Agent.default_retry
      ~delay_t2:5.5 ~delay_t3:5.5 ~seed p ~p_star
  in
  for seed = 1 to 50 do
    ignore (run seed)
  done;
  let runs = 500 in
  let w0 = Gc.minor_words () in
  for seed = 1 to runs do
    ignore (run seed)
  done;
  let per_run = (Gc.minor_words () -. w0) /. float_of_int runs in
  if per_run > 2400. then
    Alcotest.failf "Protocol.run allocates %.0f words per run" per_run

let test_telemetry_faultless_baseline () =
  let r = Swap.Protocol.run p ~p_star:2. in
  let t = r.Swap.Protocol.telemetry in
  Alcotest.(check int) "four actions, one attempt each" 4
    (List.length t.Swap.Protocol.submissions);
  Alcotest.(check int) "no retries" 0 t.Swap.Protocol.retries;
  check_float "no margin consumed on a" 0. t.Swap.Protocol.margin_consumed_a;
  check_float "no margin consumed on b" 0. t.Swap.Protocol.margin_consumed_b;
  List.iter
    (fun (s : Swap.Protocol.submission) ->
      match s.Swap.Protocol.confirmed_at with
      | Some c -> check_float "confirmed after exactly tau"
          (s.Swap.Protocol.submitted_at
          +. (if s.Swap.Protocol.chain = "chain_a" then p.Swap.Params.tau_a
              else p.Swap.Params.tau_b))
          c
      | None -> Alcotest.fail "faultless submissions all confirm")
    t.Swap.Protocol.submissions;
  check_float "nothing stranded on a" 0. r.Swap.Protocol.escrow_leftover_a;
  check_float "nothing stranded on b" 0. r.Swap.Protocol.escrow_leftover_b

(* --- AC3 witness protocol ----------------------------------------------------------- *)

let test_ac3_happy_path_table1 () =
  let r = Swap.Ac3.run p ~p_star:2. in
  Alcotest.(check string) "success" "success"
    (Swap.Ac3.outcome_to_string r.Swap.Ac3.outcome);
  check_float "alice -P*" (-2.) r.Swap.Ac3.alice_delta_a;
  check_float "alice +1" 1. r.Swap.Ac3.alice_delta_b;
  check_float "bob +P*" 2. r.Swap.Ac3.bob_delta_a;
  check_float "bob -1" (-1.) r.Swap.Ac3.bob_delta_b

let test_ac3_survives_agent_crashes () =
  List.iter
    (fun (label, run) ->
      let r = run () in
      if r.Swap.Ac3.outcome <> Swap.Ac3.Success then
        Alcotest.failf "%s: expected success, got %s" label
          (Swap.Ac3.outcome_to_string r.Swap.Ac3.outcome))
    [
      ("alice crash after t1",
       fun () -> Swap.Ac3.run ~alice_offline_from:2. p ~p_star:2.);
      ("bob crash after t2",
       fun () -> Swap.Ac3.run ~bob_offline_from:5. p ~p_star:2.);
      ("both crash after t2",
       fun () ->
         Swap.Ac3.run ~alice_offline_from:4. ~bob_offline_from:5. p ~p_star:2.);
    ]

let test_ac3_witness_crash_fails_atomically () =
  let r = Swap.Ac3.run ~witness_offline_from:5. p ~p_star:2. in
  Alcotest.(check string) "timeout" "failed (witness timeout)"
    (Swap.Ac3.outcome_to_string r.Swap.Ac3.outcome);
  check_float "alice whole" 0. r.Swap.Ac3.alice_delta_a;
  check_float "bob whole" 0. r.Swap.Ac3.bob_delta_b

let test_ac3_sr_equals_alice_committed_regime () =
  let v = Swap.Optionality.value p ~p_star:2. Swap.Optionality.alice_committed in
  check_float ~tol:1e-6 "SR identity" v.Swap.Optionality.success_rate
    (Swap.Ac3.success_rate p ~p_star:2.)

let test_ac3_sr_dominates_htlc () =
  List.iter
    (fun sigma ->
      let p' = Swap.Params.with_sigma p sigma in
      if Swap.Ac3.success_rate p' ~p_star:2.
         < Swap.Success.analytic p' ~p_star:2. -. 1e-9
      then Alcotest.failf "AC3 SR below HTLC at sigma=%g" sigma)
    [ 0.05; 0.1; 0.15 ]

(* The equilibrium policy of the AC3 game: only [alice_t1] and [bob_t2]
   are meaningful, since the protocol has no agent moves at t3/t4. *)
let ac3_rational_policy p ~p_star =
  let band = Swap.Ac3.bob_band p ~p_star in
  let feasible = Swap.Ac3.feasible_band p in
  {
    Swap.Agent.name = "rational (AC3)";
    alice_t1 =
      (fun ~p_star ->
        match feasible with
        | Some (lo, hi) when lo < p_star && p_star < hi -> Swap.Agent.Cont
        | _ -> Swap.Agent.Stop);
    bob_t2 =
      (fun ~p_t2 ->
        if Swap.Intervals.contains band p_t2 then Swap.Agent.Cont
        else Swap.Agent.Stop);
    alice_t3 = (fun ~p_t3:_ -> Swap.Agent.Cont);
    bob_t4 = Swap.Agent.Cont;
  }

let test_ac3_rational_policy_declines_bad_price () =
  let policy = ac3_rational_policy p ~p_star:2. in
  let r =
    Swap.Ac3.run ~policy ~price:(fun t -> if t < 2. then 2. else 5.) p
      ~p_star:2.
  in
  (* Token_b mooned before t2: rational Bob keeps it. *)
  Alcotest.(check string) "bob declines" "abort@t2"
    (Swap.Ac3.outcome_to_string r.Swap.Ac3.outcome);
  check_float "alice refunded" 0. r.Swap.Ac3.alice_delta_a

(* --- AC3WN (witness network) -------------------------------------------------------- *)

let test_ac3wn_happy_path () =
  let r = Swap.Ac3wn.run p ~p_star:2. in
  Alcotest.(check string) "success" "success"
    (Swap.Ac3wn.outcome_to_string r.Swap.Ac3wn.outcome);
  check_float "alice" (-2.) r.Swap.Ac3wn.alice_delta_a;
  check_float "bob" 2. r.Swap.Ac3wn.bob_delta_a;
  (match r.Swap.Ac3wn.decision_confirmed_at with
  | Some t -> check_float "decision at t3 + tau_w" 10. t
  | None -> Alcotest.fail "decision expected")

let test_ac3wn_survives_any_single_crash () =
  List.iter
    (fun (label, run) ->
      let r = run () in
      if r.Swap.Ac3wn.outcome <> Swap.Ac3wn.Success then
        Alcotest.failf "%s: expected success, got %s" label
          (Swap.Ac3wn.outcome_to_string r.Swap.Ac3wn.outcome))
    [
      ("alice crash after t1",
       fun () -> Swap.Ac3wn.run ~alice_offline_from:2. p ~p_star:2.);
      ("bob crash after t2",
       fun () -> Swap.Ac3wn.run ~bob_offline_from:5. p ~p_star:2.);
      ("alice crash after posting",
       fun () -> Swap.Ac3wn.run ~alice_offline_from:8. p ~p_star:2.);
    ]

let test_ac3wn_all_crash_fails_atomically () =
  let r =
    Swap.Ac3wn.run ~alice_offline_from:5. ~bob_offline_from:5. p ~p_star:2.
  in
  Alcotest.(check string) "timeout" "failed (nobody decided)"
    (Swap.Ac3wn.outcome_to_string r.Swap.Ac3wn.outcome);
  check_float "alice whole" 0. r.Swap.Ac3wn.alice_delta_a;
  check_float "bob whole" 0. r.Swap.Ac3wn.bob_delta_b

let test_ac3wn_latency_premium () =
  (* One witness-chain confirmation slower than AC3TW's happy path. *)
  let tl = Swap.Timeline.ideal p in
  let ac3tw = tl.Swap.Timeline.t3 +. max p.Swap.Params.tau_a p.Swap.Params.tau_b in
  check_float "tau_w premium"
    (ac3tw +. p.Swap.Params.tau_a)
    (Swap.Ac3wn.happy_path_hours p);
  check_float "custom tau_witness" (ac3tw +. 7.)
    (Swap.Ac3wn.happy_path_hours ~tau_witness:7. p)

(* --- Waiting-time margins ------------------------------------------------------------ *)

let test_margins_zero_reduces_to_baseline () =
  let m = Swap.Margins.create p ~delay_t2:0. ~delay_t3:0. in
  check_float ~tol:1e-9 "SR"
    (Swap.Success.analytic p ~p_star:2.)
    (Swap.Margins.success_rate m ~p_star:2.);
  let k3 = Swap.Cutoff.p_t3_low p ~p_star:2. in
  let band = Swap.Cutoff.p_t2_band p ~p_star:2. in
  check_float ~tol:1e-9 "alice t1"
    (Swap.Utility.a_t1_cont p ~p_star:2. ~k3 ~band)
    (Swap.Margins.a_t1_cont m ~p_star:2.);
  check_float ~tol:1e-9 "bob t1"
    (Swap.Utility.b_t1_cont p ~p_star:2. ~k3 ~band)
    (Swap.Margins.b_t1_cont m ~p_star:2.)

let test_margins_slack_hurts_everyone () =
  List.iter
    (fun (d2, d3) ->
      let m = Swap.Margins.create p ~delay_t2:d2 ~delay_t3:d3 in
      let loss_a, loss_b =
        Swap.Margins.schedule_cost p ~p_star:2. ~delay_t2:d2 ~delay_t3:d3
      in
      if loss_a <= 0. then Alcotest.failf "alice must lose at (%g,%g)" d2 d3;
      if loss_b <= 0. then Alcotest.failf "bob must lose at (%g,%g)" d2 d3;
      if Swap.Margins.success_rate m ~p_star:2.
         >= Swap.Success.analytic p ~p_star:2.
      then Alcotest.failf "SR must fall at (%g,%g)" d2 d3)
    [ (2., 0.); (0., 2.); (3., 3.) ]

let test_margins_monotone_in_slack () =
  let sr d =
    Swap.Margins.success_rate
      (Swap.Margins.create p ~delay_t2:d ~delay_t3:d)
      ~p_star:2.
  in
  if not (sr 0. > sr 1. && sr 1. > sr 3.) then
    Alcotest.fail "SR must decrease monotonically in slack"

(* --- Monte Carlo ---------------------------------------------------------------- *)

let test_mc_matches_analytic () =
  let p_star = 2. in
  let analytic = Swap.Success.analytic p ~p_star in
  let policy = Swap.Agent.rational p ~p_star in
  let mc = Swap.Montecarlo.run ~trials:60_000 ~seed:31 p ~p_star ~policy in
  let lo, hi = mc.Swap.Montecarlo.ci95 in
  if analytic < lo -. 0.01 || analytic > hi +. 0.01 then
    Alcotest.failf "MC %g (CI %g-%g) vs analytic %g" mc.Swap.Montecarlo.rate lo
      hi analytic

let test_mc_collateral_matches_analytic () =
  let c = Swap.Collateral.symmetric p ~q:0.5 in
  let analytic = Swap.Collateral.success_rate c ~p_star:2. in
  let mc = Swap.Montecarlo.run_collateral ~trials:60_000 ~seed:37 c ~p_star:2. in
  let lo, hi = mc.Swap.Montecarlo.ci95 in
  if analytic < lo -. 0.01 || analytic > hi +. 0.01 then
    Alcotest.failf "MC %g (CI %g-%g) vs analytic %g" mc.Swap.Montecarlo.rate lo
      hi analytic

let test_mc_honest_always_succeeds () =
  let mc =
    Swap.Montecarlo.run ~trials:5_000 p ~p_star:2. ~policy:Swap.Agent.honest
  in
  check_float "honest SR = 1" 1. mc.Swap.Montecarlo.rate

let test_mc_deterministic_given_seed () =
  let policy = Swap.Agent.rational p ~p_star:2. in
  let a = Swap.Montecarlo.run ~trials:2_000 ~seed:99 p ~p_star:2. ~policy in
  let b = Swap.Montecarlo.run ~trials:2_000 ~seed:99 p ~p_star:2. ~policy in
  Alcotest.(check int) "same successes" a.Swap.Montecarlo.successes
    b.Swap.Montecarlo.successes

let test_mc_myopic_underperforms () =
  let rational = Swap.Agent.rational p ~p_star:2. in
  let myopic = Swap.Agent.myopic p ~p_star:2. in
  let mr = Swap.Montecarlo.run ~trials:20_000 p ~p_star:2. ~policy:rational in
  let mm = Swap.Montecarlo.run ~trials:20_000 p ~p_star:2. ~policy:myopic in
  if mm.Swap.Montecarlo.rate >= mr.Swap.Montecarlo.rate then
    Alcotest.fail "myopic agents must fail more often"

let test_mc_jump_sampler_direction () =
  (* At matched total variance, moving variance out of the diffusion
     into rare jumps RAISES the success rate: defections are driven by
     typical moves (the diffusive sigma), not by tail mass.  See the
     "jumps" experiment for the full ablation. *)
  let policy = Swap.Agent.rational p ~p_star:2. in
  let jd =
    Stochastic.Jump_diffusion.create ~mu:p.Swap.Params.mu ~sigma:0.07
      ~lambda:0.05 ~jump_mean:(-0.02) ~jump_stddev:0.3
  in
  let gbm_mc = Swap.Montecarlo.run ~trials:30_000 p ~p_star:2. ~policy in
  let jump_mc =
    Swap.Montecarlo.run ~trials:30_000
      ~sampler:(Swap.Montecarlo.jump_sampler jd)
      p ~p_star:2. ~policy
  in
  if jump_mc.Swap.Montecarlo.rate <= gbm_mc.Swap.Montecarlo.rate then
    Alcotest.fail
      "same-variance jump model should raise SR (lower diffusive sigma)"

(* A trial writes its utilities in place and tallies them unboxed, and
   the t1 decision, the timeline, the discount factors and the
   sampler's per-tau constants are computed once per run: at Table III
   a trial allocates ~11 words, 4 a draw (the boxed price and the boxed
   normal deviate under it).  The bound fails if draws go back through
   an unstaged per-call [Gbm.sample] (~15 words). *)
let test_mc_allocation () =
  let p_star = 2. in
  let policy = Swap.Agent.rational p ~p_star in
  let trials = 20_000 in
  let run () = Swap.Montecarlo.run ~trials ~seed:3 ~jobs:1 p ~p_star ~policy in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let r = run () in
  let per_trial = (Gc.minor_words () -. w0) /. float_of_int trials in
  if per_trial > 13. then
    Alcotest.failf "Montecarlo.run allocates %.1f words per trial" per_trial;
  Alcotest.(check int)
    "every trial initiated" trials r.Swap.Montecarlo.initiated

(* --- Lattice game cross-check ------------------------------------------------------- *)

let test_lattice_game_converges () =
  let p_star = 2. in
  let analytic = Swap.Success.analytic p ~p_star in
  let spec = Swap.Lattice_game.make_spec ~steps_a:120 ~steps_b:120 p ~p_star in
  let sol = Swap.Lattice_game.solve spec in
  if abs_float (sol.Swap.Lattice_game.success_rate -. analytic) > 0.03 then
    Alcotest.failf "lattice SR %g vs analytic %g"
      sol.Swap.Lattice_game.success_rate analytic;
  (match sol.Swap.Lattice_game.t3_boundary with
  | Some b ->
    check_float ~tol:0.05 "t3 boundary vs Eq. 18"
      (Swap.Cutoff.p_t3_low p ~p_star)
      b
  | None -> Alcotest.fail "Alice should continue at some lattice node");
  Alcotest.(check bool) "initiates at a feasible rate" true
    sol.Swap.Lattice_game.alice_initiates

let test_lattice_game_refinement_improves () =
  let p_star = 2. in
  let analytic = Swap.Success.analytic p ~p_star in
  let err steps =
    let spec = Swap.Lattice_game.make_spec ~steps_a:steps ~steps_b:steps p ~p_star in
    abs_float ((Swap.Lattice_game.solve spec).Swap.Lattice_game.success_rate -. analytic)
  in
  (* Binomial-lattice convergence oscillates, so compare a coarse and a
     fine lattice rather than neighbours. *)
  if not (err 120 < err 10) then
    Alcotest.fail "refining the lattice must reduce the SR error"

let test_lattice_game_rejects_infeasible_rate () =
  let spec = Swap.Lattice_game.make_spec ~steps_a:60 ~steps_b:60 p ~p_star:4. in
  let sol = Swap.Lattice_game.solve spec in
  Alcotest.(check bool) "no initiation at absurd rate" false
    sol.Swap.Lattice_game.alice_initiates

let test_lattice_game_collateral_cross_check () =
  List.iter
    (fun q ->
      let spec =
        Swap.Lattice_game.make_spec ~steps_a:100 ~steps_b:100 ~q p ~p_star:2.
      in
      let sol = Swap.Lattice_game.solve spec in
      let analytic =
        Swap.Collateral.success_rate (Swap.Collateral.symmetric p ~q)
          ~p_star:2.
      in
      if abs_float (sol.Swap.Lattice_game.success_rate -. analytic) > 0.03 then
        Alcotest.failf "q=%g: lattice %g vs analytic %g" q
          sol.Swap.Lattice_game.success_rate analytic;
      match sol.Swap.Lattice_game.t3_boundary with
      | Some b ->
        let kc =
          Swap.Collateral.p_t3_low (Swap.Collateral.symmetric p ~q) ~p_star:2.
        in
        if abs_float (b -. kc) > 0.05 then
          Alcotest.failf "q=%g: boundary %g vs Eq. 34 %g" q b kc
      | None -> Alcotest.fail "boundary expected")
    [ 0.25; 0.5 ]

let test_lattice_game_tree_is_valid () =
  let spec = Swap.Lattice_game.make_spec ~steps_a:12 ~steps_b:12 p ~p_star:2. in
  match Gametree.Game.validate (Swap.Lattice_game.build_full spec) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid game tree: %s" e

(* --- Multi-hop cyclic swaps -------------------------------------------------------- *)

(* An n-party cyclic swap is the n-cycle swap graph under the Herlihy
   schedule, calibrated from the 2-party parameters. *)
let cycle n =
  let g = Swapgraph.Topology.cycle n in
  (g, Swap.Graphlink.schedule p g)

(* Every leg's price stays at Exec.run's default of 2 = P*. *)
let run_cycle ?decisions ?offline n =
  let g, s = cycle n in
  Swapgraph.Exec.run ?decisions ?offline g s

let outcome_to_string = function
  | Swapgraph.Exec.Success -> "success"
  | Swapgraph.Exec.Abort_at_lock j -> Printf.sprintf "abort@%d" j
  | Swapgraph.Exec.Abort_no_reveal -> "no reveal"
  | Swapgraph.Exec.Anomalous s -> s

let test_multihop_happy_path () =
  let r = run_cycle 4 in
  (match r.Swapgraph.Exec.outcome with
  | Swapgraph.Exec.Success -> ()
  | _ -> Alcotest.fail "4-party cycle must complete");
  Array.iter
    (fun (out, inc) ->
      check_float "gave one" (-1.) out;
      check_float "received one" 1. inc)
    r.Swapgraph.Exec.deltas

let test_multihop_abort_refunds_everyone () =
  let decline_at k v ~price:_ =
    if v = k then Swapgraph.Exec.Stop else Swapgraph.Exec.Cont
  in
  List.iter
    (fun k ->
      let r = run_cycle ~decisions:(decline_at k) 4 in
      (match (k, r.Swapgraph.Exec.outcome) with
      | 0, Swapgraph.Exec.Abort_no_reveal -> ()
      | k, Swapgraph.Exec.Abort_at_lock j when j = k -> ()
      | _, other ->
        Alcotest.failf "decline by %d: unexpected outcome %s" k
          (outcome_to_string other));
      Array.iter
        (fun (out, inc) ->
          check_float "outgoing restored" 0. out;
          check_float "nothing received" 0. inc)
        r.Swapgraph.Exec.deltas)
    [ 0; 1; 3 ]

let test_multihop_expiry_schedule_staggered () =
  let _, s = cycle 4 in
  let ex = s.Swapgraph.Timelock.expiry in
  for j = 1 to 3 do
    if ex.(j) >= ex.(j - 1) then
      Alcotest.fail "deadlines must grow toward the leader's chain"
  done;
  (* Every claim confirms exactly at its expiry (tight schedule). *)
  check_float "lock phase" 16. s.Swapgraph.Timelock.lock_phase_end

let test_multihop_sr_decays_with_parties () =
  let sr n =
    let g, s = cycle n in
    (Swapgraph.Mc.estimate ~trials:15_000 g s
       (Swap.Graphlink.uniform_policy p ~p_star:2.))
      .Swapgraph.Mc.rate
  in
  let s2 = sr 2 and s4 = sr 4 and s6 = sr 6 in
  if not (s2 > s4 && s4 > s6) then
    Alcotest.failf "SR must decay with hops: %g %g %g" s2 s4 s6;
  if s6 >= 0.5 *. s2 then
    Alcotest.fail "decay should be substantial by 6 parties"

let test_multihop_crash_mid_cascade_strands_one_party () =
  let r = run_cycle ~offline:[ (2, 10.) ] 3 in
  (match r.Swapgraph.Exec.outcome with
  | Swapgraph.Exec.Anomalous _ -> ()
  | _ -> Alcotest.fail "mid-cascade crash must break atomicity");
  (* The crashed party gave without receiving; others are whole. *)
  let out2, in2 = r.Swapgraph.Exec.deltas.(2) in
  check_float "party2 gave" (-1.) out2;
  check_float "party2 got nothing" 0. in2

(* --- Fuzzing: invariants under arbitrary adversities ---------------------------- *)

let fuzz_tests =
  let open QCheck in
  let scenario_gen =
    Gen.(
      let* seed = int_range 0 100_000 in
      let* p_star = float_range 1.2 3.2 in
      let* q = oneofl [ 0.; 0.25; 1. ] in
      let* reveal_delay = oneofl [ 0.; 0.5; 2.; 5. ] in
      let* alice_off = opt (float_range 0. 20.) in
      let* bob_off = opt (float_range 0. 20.) in
      let* deviation =
        oneofl
          [ None; Some Swap.Protocol.Wrong_hash;
            Some (Swap.Protocol.Short_amount 0.5);
            Some (Swap.Protocol.Early_expiry 1.5) ]
      in
      let* price_jump = float_range 0.2 5. in
      return
        (seed, p_star, q, reveal_delay, alice_off, bob_off, deviation,
         price_jump))
  in
  let arb = make scenario_gen in
  let run_scenario
      (seed, p_star, q, reveal_delay, alice_off, bob_off, deviation, jump) =
    let price t = if t < 5. then p.Swap.Params.p0 else p.Swap.Params.p0 *. jump in
    (* Mid-game rationality only; the t1 feasibility solve is expensive
       and irrelevant to the invariants under test. *)
    let k3 = Swap.Cutoff.p_t3_low p ~p_star in
    let band = Swap.Cutoff.p_t2_band p ~p_star in
    let policy =
      {
        Swap.Agent.name = "fuzz";
        alice_t1 = (fun ~p_star:_ -> Swap.Agent.Cont);
        bob_t2 =
          (fun ~p_t2 ->
            if Swap.Intervals.contains band p_t2 then Swap.Agent.Cont
            else Swap.Agent.Stop);
        alice_t3 =
          (fun ~p_t3 -> if p_t3 > k3 then Swap.Agent.Cont else Swap.Agent.Stop);
        bob_t4 = Swap.Agent.Cont;
      }
    in
    Swap.Protocol.run ~q ~policy ~price ~reveal_delay ?bob_deviation:deviation
      ?alice_offline_from:alice_off ?bob_offline_from:bob_off ~seed p ~p_star
  in
  [
    Test.make ~name:"fuzz: token conservation on both chains" ~count:150 arb
      (fun scenario ->
        let r = run_scenario scenario in
        (* Whatever happens, tokens are only redistributed. *)
        let _, p_star, q, _, _, _, _, _ = scenario in
        ignore q;
        abs_float (r.Swap.Protocol.alice_delta_b +. r.Swap.Protocol.bob_delta_b)
        < 1e-9
        && r.Swap.Protocol.alice_delta_b <= 1. +. 1e-9
        && r.Swap.Protocol.bob_delta_a <= p_star +. (2. *. q) +. 1e-9);
    Test.make ~name:"fuzz: success iff Table I deltas" ~count:150 arb
      (fun scenario ->
        let r = run_scenario scenario in
        let _, p_star, _, _, _, _, _, _ = scenario in
        match r.Swap.Protocol.outcome with
        | Swap.Protocol.Success ->
          abs_float (r.Swap.Protocol.alice_delta_a +. p_star) < 1e-9
          && abs_float (r.Swap.Protocol.alice_delta_b -. 1.) < 1e-9
        | _ -> true);
    Test.make ~name:"fuzz: anomalies only from crashes or late reveals"
      ~count:150 arb (fun scenario ->
        let r = run_scenario scenario in
        let _, _, _, reveal_delay, alice_off, bob_off, _, _ = scenario in
        match r.Swap.Protocol.outcome with
        | Swap.Protocol.Anomalous _ ->
          reveal_delay > 0. || alice_off <> None || bob_off <> None
        | _ -> true);
    Test.make
      ~name:"fuzz: crash anomaly exactly iff bob dies in (t2, t4]" ~count:200
      (pair bool (float_range 0. 12.))
      (fun (bob_crashes, t) ->
        let r =
          if bob_crashes then Swap.Protocol.run ~bob_offline_from:t p ~p_star:2.
          else Swap.Protocol.run ~alice_offline_from:t p ~p_star:2.
        in
        let anomalous =
          match r.Swap.Protocol.outcome with
          | Swap.Protocol.Anomalous _ -> true
          | _ -> false
        in
        (* Tokens are only redistributed, crash or no crash... *)
        abs_float (r.Swap.Protocol.alice_delta_a +. r.Swap.Protocol.bob_delta_a)
        < 1e-9
        && abs_float
             (r.Swap.Protocol.alice_delta_b +. r.Swap.Protocol.bob_delta_b)
           < 1e-9
        (* ...and the Zakhary window is sharp: Bob offline strictly after
           his lock (t2 = 3) through his claim time (t4 = 8) — and only
           that — breaks atomicity on the ideal schedule. *)
        && anomalous = (bob_crashes && t > 3. && t <= 8.));
  ]

let () =
  Alcotest.run "protocol"
    [
      ( "agent",
        [
          Alcotest.test_case "rational matches cutoffs" `Quick
            test_rational_policy_matches_cutoffs;
          Alcotest.test_case "rejects bad rates" `Quick
            test_rational_rejects_bad_rate;
          Alcotest.test_case "honest and myopic" `Quick test_honest_and_myopic;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "success matches Table I" `Quick
            test_protocol_success_table1;
          Alcotest.test_case "aborts are atomic" `Quick
            test_protocol_abort_paths_are_atomic;
          Alcotest.test_case "late reveal fails safe" `Quick
            test_protocol_late_reveal_fails_safe;
          Alcotest.test_case "collateral success is neutral" `Quick
            test_protocol_collateral_success_neutral;
          Alcotest.test_case "collateral punishes bob" `Quick
            test_protocol_collateral_punishes_bob;
          Alcotest.test_case "collateral punishes alice" `Quick
            test_protocol_collateral_punishes_alice;
          Alcotest.test_case "price path drives decisions" `Quick
            test_protocol_on_price_path;
          Alcotest.test_case "bob deviations caught" `Quick
            test_protocol_bob_deviations_caught;
          Alcotest.test_case "marginal expiry tolerated" `Quick
            test_protocol_marginal_early_expiry_tolerated;
          Alcotest.test_case "trace and receipts" `Quick
            test_protocol_trace_and_receipts;
          Alcotest.test_case "allocation per run" `Quick
            test_protocol_allocation;
        ] );
      ( "crash",
        [
          Alcotest.test_case "alice crashes atomically" `Quick
            test_crash_alice_is_atomic;
          Alcotest.test_case "bob crash violates atomicity" `Quick
            test_crash_bob_after_lock_violates_atomicity;
          Alcotest.test_case "early bob crash is atomic" `Quick
            test_crash_bob_early_is_atomic;
          Alcotest.test_case "transient outage, back before t4" `Quick
            test_transient_outage_back_before_t4;
          Alcotest.test_case "transient outage, late without slack" `Quick
            test_transient_outage_back_too_late_without_slack;
          Alcotest.test_case "slack buys recovery" `Quick
            test_transient_outage_slack_buys_recovery;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "retries flip failures, never successes" `Quick
            test_retry_flips_outcomes;
          Alcotest.test_case "deterministic under faults" `Quick
            test_protocol_deterministic_under_faults;
          Alcotest.test_case "faultless telemetry baseline" `Quick
            test_telemetry_faultless_baseline;
        ] );
      ( "ac3",
        [
          Alcotest.test_case "happy path matches Table I" `Quick
            test_ac3_happy_path_table1;
          Alcotest.test_case "survives agent crashes" `Quick
            test_ac3_survives_agent_crashes;
          Alcotest.test_case "witness crash fails atomically" `Quick
            test_ac3_witness_crash_fails_atomically;
          Alcotest.test_case "SR equals alice-committed regime" `Quick
            test_ac3_sr_equals_alice_committed_regime;
          Alcotest.test_case "SR dominates HTLC" `Quick
            test_ac3_sr_dominates_htlc;
          Alcotest.test_case "rational policy declines bad price" `Quick
            test_ac3_rational_policy_declines_bad_price;
        ] );
      ( "ac3wn",
        [
          Alcotest.test_case "happy path" `Quick test_ac3wn_happy_path;
          Alcotest.test_case "survives any single crash" `Quick
            test_ac3wn_survives_any_single_crash;
          Alcotest.test_case "all-crash fails atomically" `Quick
            test_ac3wn_all_crash_fails_atomically;
          Alcotest.test_case "latency premium" `Quick
            test_ac3wn_latency_premium;
        ] );
      ( "margins",
        [
          Alcotest.test_case "zero slack = baseline" `Quick
            test_margins_zero_reduces_to_baseline;
          Alcotest.test_case "slack hurts everyone" `Quick
            test_margins_slack_hurts_everyone;
          Alcotest.test_case "SR monotone in slack" `Quick
            test_margins_monotone_in_slack;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "matches Eq. 31" `Slow test_mc_matches_analytic;
          Alcotest.test_case "matches Eq. 40" `Slow
            test_mc_collateral_matches_analytic;
          Alcotest.test_case "honest agents always succeed" `Quick
            test_mc_honest_always_succeeds;
          Alcotest.test_case "deterministic by seed" `Quick
            test_mc_deterministic_given_seed;
          Alcotest.test_case "myopic underperforms" `Slow
            test_mc_myopic_underperforms;
          Alcotest.test_case "jump-variance direction" `Slow
            test_mc_jump_sampler_direction;
          Alcotest.test_case "allocation per trial" `Quick test_mc_allocation;
        ] );
      ( "multihop",
        [
          Alcotest.test_case "happy path (4 parties)" `Quick
            test_multihop_happy_path;
          Alcotest.test_case "aborts refund everyone" `Quick
            test_multihop_abort_refunds_everyone;
          Alcotest.test_case "staggered deadlines" `Quick
            test_multihop_expiry_schedule_staggered;
          Alcotest.test_case "SR decays with parties" `Slow
            test_multihop_sr_decays_with_parties;
          Alcotest.test_case "mid-cascade crash strands one party" `Quick
            test_multihop_crash_mid_cascade_strands_one_party;
        ] );
      ("fuzz", List.map QCheck_alcotest.to_alcotest fuzz_tests);
      ( "lattice_game",
        [
          Alcotest.test_case "converges to analytic" `Slow
            test_lattice_game_converges;
          Alcotest.test_case "refinement reduces error" `Slow
            test_lattice_game_refinement_improves;
          Alcotest.test_case "rejects infeasible rate" `Quick
            test_lattice_game_rejects_infeasible_rate;
          Alcotest.test_case "collateral cross-check (Eq. 34/40)" `Slow
            test_lattice_game_collateral_cross_check;
          Alcotest.test_case "game tree validates" `Quick
            test_lattice_game_tree_is_valid;
        ] );
    ]
