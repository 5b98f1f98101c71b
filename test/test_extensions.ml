(* Tests for the Section V extension modules: optionality pricing,
   protocol selection, staking yields and transaction fees. *)

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

let p = Swap.Params.defaults

(* --- Optionality ------------------------------------------------------- *)

let test_rational_regime_matches_baseline () =
  let v = Swap.Optionality.value p ~p_star:2. Swap.Optionality.rational in
  check_float ~tol:1e-6 "SR agrees with Eq. 31"
    (Swap.Success.analytic p ~p_star:2.)
    v.Swap.Optionality.success_rate;
  let k3 = Swap.Cutoff.p_t3_low p ~p_star:2. in
  let band = Swap.Cutoff.p_t2_band p ~p_star:2. in
  check_float ~tol:1e-6 "Alice value agrees with Eq. 25"
    (Swap.Utility.a_t1_cont p ~p_star:2. ~k3 ~band)
    v.Swap.Optionality.alice_t1

let test_full_commitment_always_succeeds () =
  let v = Swap.Optionality.value p ~p_star:2. Swap.Optionality.both_committed in
  check_float ~tol:1e-6 "SR = 1 with no exits" 1. v.Swap.Optionality.success_rate

let test_commitment_helps_counterparty () =
  let rational = Swap.Optionality.value p ~p_star:2. Swap.Optionality.rational in
  let a_committed =
    Swap.Optionality.value p ~p_star:2. Swap.Optionality.alice_committed
  in
  let b_committed =
    Swap.Optionality.value p ~p_star:2. Swap.Optionality.bob_committed
  in
  if a_committed.Swap.Optionality.bob_t1 <= rational.Swap.Optionality.bob_t1 then
    Alcotest.fail "Alice's commitment must raise Bob's value";
  if b_committed.Swap.Optionality.alice_t1 <= rational.Swap.Optionality.alice_t1
  then Alcotest.fail "Bob's commitment must raise Alice's value";
  if a_committed.Swap.Optionality.success_rate
     <= rational.Swap.Optionality.success_rate
  then Alcotest.fail "commitment must raise the success rate"

let test_option_values_grow_with_volatility () =
  let ov sigma =
    Swap.Optionality.option_values (Swap.Params.with_sigma p sigma) ~p_star:2.
  in
  let low = ov 0.06 and high = ov 0.12 in
  if high.Swap.Optionality.bob_option <= low.Swap.Optionality.bob_option then
    Alcotest.fail "Bob's option must appreciate with volatility";
  if high.Swap.Optionality.alice_option <= low.Swap.Optionality.alice_option
  then Alcotest.fail "Alice's option must appreciate with volatility";
  if low.Swap.Optionality.alice_option < 0. then
    Alcotest.fail "options should be nonnegative at these parameters";
  check_float ~tol:1e-9 "committed SR is 1" 1.
    low.Swap.Optionality.sr_all_committed

(* --- Selection ----------------------------------------------------------- *)

let test_selection_plain_matches_baseline () =
  let a = Swap.Selection.assess p ~p_star:2. Swap.Selection.Plain in
  check_float ~tol:1e-6 "plain SR"
    (Swap.Success.analytic p ~p_star:2.)
    a.Swap.Selection.success_rate;
  Alcotest.(check bool) "plain adoptable at defaults" true
    a.Swap.Selection.adoptable

let test_selection_collateral_beats_plain_on_surplus () =
  let plain = Swap.Selection.assess p ~p_star:2. Swap.Selection.Plain in
  let coll = Swap.Selection.assess p ~p_star:2. (Swap.Selection.Collateral 0.5) in
  let surplus a = a.Swap.Selection.alice_net +. a.Swap.Selection.bob_net in
  if surplus coll <= surplus plain then
    Alcotest.fail "collateral should raise joint surplus at defaults"

let test_selection_choice_consistency () =
  let menu =
    [ Swap.Selection.Plain; Swap.Selection.Collateral 0.5;
      Swap.Selection.Premium 0.5 ]
  in
  let choice = Swap.Selection.choose p ~p_star:2. menu in
  (match choice.Swap.Selection.joint with
  | Some _ -> ()
  | None -> Alcotest.fail "a joint choice must exist at defaults");
  (* The joint choice must be adoptable. *)
  match choice.Swap.Selection.joint with
  | Some m ->
    let a = Swap.Selection.assess p ~p_star:2. m in
    Alcotest.(check bool) "joint choice adoptable" true a.Swap.Selection.adoptable
  | None -> ()

let test_premium_shifts_surplus_to_bob () =
  let plain = Swap.Selection.assess p ~p_star:2. Swap.Selection.Plain in
  let prem = Swap.Selection.assess p ~p_star:2. (Swap.Selection.Premium 0.5) in
  if prem.Swap.Selection.bob_net <= plain.Swap.Selection.bob_net then
    Alcotest.fail "the premium must benefit Bob";
  if prem.Swap.Selection.alice_net >= plain.Swap.Selection.alice_net then
    Alcotest.fail "the premium is a cost to Alice"

(* --- Staking ---------------------------------------------------------------- *)

let test_staking_zero_reduces_to_baseline () =
  let s = Swap.Staking.create p ~yield_a:0. ~yield_b:0. in
  check_float ~tol:1e-12 "cutoff" (Swap.Cutoff.p_t3_low p ~p_star:2.)
    (Swap.Staking.p_t3_low s ~p_star:2.);
  check_float ~tol:1e-6 "SR"
    (Swap.Success.analytic p ~p_star:2.)
    (Swap.Staking.success_rate s ~p_star:2.);
  let k3 = Swap.Cutoff.p_t3_low p ~p_star:2. in
  check_float ~tol:1e-12 "b_t2_cont"
    (Swap.Utility.b_t2_cont p ~p_star:2. ~k3 ~p_t2:1.9)
    (Swap.Staking.b_t2_cont s ~p_star:2. ~p_t2:1.9)

let test_staking_directions () =
  let sr ~ya ~yb =
    Swap.Staking.success_rate
      (Swap.Staking.create p ~yield_a:ya ~yield_b:yb)
      ~p_star:2.
  in
  (* Token_b yield penalises Bob's lock: SR falls. *)
  if sr ~ya:0. ~yb:0.004 >= sr ~ya:0. ~yb:0. then
    Alcotest.fail "Token_b staking must lower SR";
  (* Token_a yield erodes Alice's refund option: she reveals more, SR rises. *)
  if sr ~ya:0.004 ~yb:0. <= sr ~ya:0. ~yb:0. then
    Alcotest.fail "Token_a staking must raise SR";
  (* Cutoff falls with yield_a. *)
  let cut ya =
    Swap.Staking.p_t3_low (Swap.Staking.create p ~yield_a:ya ~yield_b:0.) ~p_star:2.
  in
  if cut 0.004 >= cut 0. then Alcotest.fail "cutoff must fall with yield_a"

let test_staking_validation () =
  match Swap.Staking.create p ~yield_a:(-0.01) ~yield_b:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative yield must be rejected"

(* --- Fees ---------------------------------------------------------------------- *)

let test_fees_zero_reduces_to_baseline () =
  let f = Swap.Fees.create p ~fee_a:0. ~fee_b:0. in
  check_float ~tol:1e-12 "cutoff" (Swap.Cutoff.p_t3_low p ~p_star:2.)
    (Swap.Fees.p_t3_low f ~p_star:2.);
  check_float ~tol:1e-6 "SR"
    (Swap.Success.analytic p ~p_star:2.)
    (Swap.Fees.success_rate f ~p_star:2.);
  (match Swap.Fees.p_star_band f with
  | Some (lo, hi) ->
    (match Swap.Cutoff.p_star_band_endpoints p with
    | Some (lo', hi') ->
      check_float ~tol:1e-3 "band lo" lo' lo;
      check_float ~tol:1e-3 "band hi" hi' hi
    | None -> Alcotest.fail "baseline band expected")
  | None -> Alcotest.fail "zero-fee band expected")

let test_fees_raise_cutoff_and_lower_sr () =
  let f = Swap.Fees.create p ~fee_a:0.05 ~fee_b:0.05 in
  if Swap.Fees.p_t3_low f ~p_star:2. <= Swap.Cutoff.p_t3_low p ~p_star:2. then
    Alcotest.fail "claim fee must raise Alice's cutoff";
  if Swap.Fees.success_rate f ~p_star:2. >= Swap.Success.analytic p ~p_star:2.
  then Alcotest.fail "fees must lower SR"

let test_fees_band_shrinks () =
  let width fee =
    match Swap.Fees.p_star_band (Swap.Fees.create p ~fee_a:fee ~fee_b:fee) with
    | Some (lo, hi) -> hi -. lo
    | None -> 0.
  in
  if not (width 0.05 < width 0.01 && width 0.01 < width 0.) then
    Alcotest.fail "the feasible band must shrink with fees"

let test_fees_notional_scaling () =
  let f = Swap.Fees.create p ~fee_a:0.05 ~fee_b:0.05 in
  let net n =
    Swap.Fees.a_t1_net (Swap.Fees.create ~notional:n p ~fee_a:0.05 ~fee_b:0.05)
      ~p_star:2.
  in
  if net 0.1 >= 0. then Alcotest.fail "tiny trades must be unprofitable";
  if net 5. <= 0. then Alcotest.fail "large trades must absorb fees";
  match Swap.Fees.break_even_notional f ~p_star:2. with
  | None -> Alcotest.fail "break-even expected"
  | Some n ->
    if net (n *. 1.1) <= 0. then Alcotest.fail "above break-even profitable";
    if net (n *. 0.9) >= 0. then Alcotest.fail "below break-even unprofitable"

let test_fees_validation () =
  (match Swap.Fees.create p ~fee_a:(-1.) ~fee_b:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative fee rejected");
  match Swap.Fees.create ~notional:0. p ~fee_a:0. ~fee_b:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero notional rejected"

(* --- Generic price-model solver ---------------------------------------------------- *)

let test_generic_gbm_matches_closed_form () =
  let m = Swap.Generic_model.gbm p in
  List.iter
    (fun p_star ->
      check_float ~tol:1e-6
        (Printf.sprintf "cutoff at %g" p_star)
        (Swap.Cutoff.p_t3_low p ~p_star)
        (Swap.Generic_model.p_t3_low p m ~p_star);
      check_float ~tol:1e-5
        (Printf.sprintf "SR at %g" p_star)
        (Swap.Success.analytic p ~p_star)
        (Swap.Generic_model.success_rate p m ~p_star);
      let k3 = Swap.Cutoff.p_t3_low p ~p_star in
      check_float ~tol:1e-6 "b_t2_cont"
        (Swap.Utility.b_t2_cont p ~p_star ~k3 ~p_t2:1.9)
        (Swap.Generic_model.b_t2_cont p m ~p_star ~p_t2:1.9))
    [ 1.8; 2.; 2.2 ]

let test_generic_ou_raises_sr () =
  (* A peg at the agreed price with same instantaneous vol: reliability
     improves monotonically with the reversion speed. *)
  let sr kappa =
    let ou = Stochastic.Exp_ou.create ~kappa ~theta_price:2. ~sigma:0.1 in
    Swap.Generic_model.success_rate p (Swap.Generic_model.exp_ou ou) ~p_star:2.
  in
  let gbm_sr = Swap.Success.analytic p ~p_star:2. in
  if not (sr 0.05 > gbm_sr && sr 0.2 > sr 0.05) then
    Alcotest.fail "mean reversion must raise SR monotonically"

let test_generic_ou_mc_agrees () =
  let ou = Stochastic.Exp_ou.create ~kappa:0.1 ~theta_price:2. ~sigma:0.1 in
  let m = Swap.Generic_model.exp_ou ou in
  let analytic = Swap.Generic_model.success_rate p m ~p_star:2. in
  let mc =
    Swap.Montecarlo.run ~trials:60_000 ~seed:77
      ~sampler:(Swap.Generic_model.sampler m)
      p ~p_star:2.
      ~policy:(Swap.Generic_model.policy p m ~p_star:2.)
  in
  let lo, hi = mc.Swap.Montecarlo.ci95 in
  if analytic < lo -. 0.01 || analytic > hi +. 0.01 then
    Alcotest.failf "OU MC %g (CI %g-%g) vs analytic %g"
      mc.Swap.Montecarlo.rate lo hi analytic

let test_generic_ou_lowers_cutoff () =
  let ou = Stochastic.Exp_ou.create ~kappa:0.2 ~theta_price:2. ~sigma:0.1 in
  let cutoff =
    Swap.Generic_model.p_t3_low p (Swap.Generic_model.exp_ou ou) ~p_star:2.
  in
  if cutoff >= Swap.Cutoff.p_t3_low p ~p_star:2. then
    Alcotest.fail "reversion to the peg must lower Alice's cutoff"

(* --- Bargaining ---------------------------------------------------------------------- *)

let test_nash_rate_in_band () =
  match (Swap.Bargaining.nash_rate p, Swap.Cutoff.p_star_band_endpoints p) with
  | Some split, Some (lo, hi) ->
    if split.Swap.Bargaining.p_star < lo || split.Swap.Bargaining.p_star > hi
    then Alcotest.fail "Nash rate must be feasible";
    if split.Swap.Bargaining.alice_gain <= 0. then
      Alcotest.fail "Alice must gain at the Nash rate";
    if split.Swap.Bargaining.bob_gain <= 0. then
      Alcotest.fail "Bob must gain at the Nash rate";
    check_float ~tol:1e-9 "product consistency"
      (split.Swap.Bargaining.alice_gain *. split.Swap.Bargaining.bob_gain)
      split.Swap.Bargaining.nash_product
  | _ -> Alcotest.fail "Nash rate must exist at defaults"

let test_nash_rate_locally_optimal () =
  match Swap.Bargaining.nash_rate ~grid:80 p with
  | None -> Alcotest.fail "expected a solution"
  | Some split ->
    let product p_star =
      let a, b = Swap.Bargaining.gains p ~p_star in
      a *. b
    in
    let x = split.Swap.Bargaining.p_star in
    if product (x +. 0.05) > split.Swap.Bargaining.nash_product +. 1e-6
       || product (x -. 0.05) > split.Swap.Bargaining.nash_product +. 1e-6
    then Alcotest.fail "neighbours must not beat the Nash product"

let test_engagement_game_structure () =
  let c = Swap.Collateral.symmetric p ~q:0.5 in
  let good = Swap.Bargaining.analyse_engagement c ~p_star:2. in
  Alcotest.(check bool) "engage/engage NE at a fair rate" true
    good.Swap.Bargaining.both_engage_is_equilibrium;
  Alcotest.(check bool) "coordination failure also NE" true
    good.Swap.Bargaining.coordination_failure_possible;
  let bad = Swap.Bargaining.analyse_engagement c ~p_star:4. in
  Alcotest.(check bool) "no engagement at an absurd rate" false
    bad.Swap.Bargaining.both_engage_is_equilibrium

let test_engagement_matches_initiation_set () =
  let c = Swap.Collateral.symmetric p ~q:0.5 in
  let set = Swap.Collateral.initiation_set c in
  List.iter
    (fun p_star ->
      let e = Swap.Bargaining.analyse_engagement c ~p_star in
      let in_set = Swap.Intervals.contains set p_star in
      if in_set && not e.Swap.Bargaining.both_engage_is_equilibrium then
        Alcotest.failf "engage/engage must be NE inside the set (P*=%g)" p_star)
    [ 1.9; 2.; 2.2 ]

(* --- Bayesian (incomplete information) ------------------------------------------------ *)

let test_bayesian_point_belief_is_complete_info () =
  let b = Swap.Bayesian.belief [ (1., 0.3) ] in
  check_float ~tol:1e-9 "band matches"
    (Swap.Utility.b_t2_cont p ~p_star:2.
       ~k3:(Swap.Cutoff.p_t3_low p ~p_star:2.)
       ~p_t2:1.9)
    (Swap.Bayesian.b_t2_cont_mixed p ~belief_on_alice:b ~p_star:2. ~p_t2:1.9);
  check_float ~tol:1e-6 "SR matches Eq. 31"
    (Swap.Success.analytic p ~p_star:2.)
    (Swap.Bayesian.success_rate_given_alice p ~belief_on_alice:b
       ~true_alpha_alice:0.3 ~p_star:2.);
  check_float ~tol:1e-6 "ex-ante equals realised for a point belief"
    (Swap.Bayesian.ex_ante_success_rate p ~belief_on_alice:b ~p_star:2.)
    (Swap.Success.analytic p ~p_star:2.)

let test_bayesian_spread_lowers_ex_ante_sr () =
  let sr pairs =
    Swap.Bayesian.ex_ante_success_rate p
      ~belief_on_alice:(Swap.Bayesian.belief pairs)
      ~p_star:2.
  in
  let point = sr [ (1., 0.3) ] in
  let narrow = sr [ (0.5, 0.2); (0.5, 0.4) ] in
  let wide = sr [ (0.5, 0.05); (0.5, 0.55) ] in
  if not (point > narrow && narrow > wide) then
    Alcotest.failf "dispersion must lower ex-ante SR: %g %g %g" point narrow
      wide

let test_bayesian_adverse_selection () =
  let b = Swap.Bayesian.belief [ (0.5, 0.1); (0.5, 0.5) ] in
  let low =
    Swap.Bayesian.success_rate_given_alice p ~belief_on_alice:b
      ~true_alpha_alice:0.1 ~p_star:2.
  in
  let high =
    Swap.Bayesian.success_rate_given_alice p ~belief_on_alice:b
      ~true_alpha_alice:0.5 ~p_star:2.
  in
  if low >= high then Alcotest.fail "low types must fail more often";
  (* Ex-ante is the belief mixture of the type-wise rates. *)
  check_float ~tol:1e-9 "mixture identity"
    (0.5 *. (low +. high))
    (Swap.Bayesian.ex_ante_success_rate p ~belief_on_alice:b ~p_star:2.)

let test_bayesian_mc_cross_check () =
  (* Simulate the Bayesian game: nature draws Alice's type, Bob plays
     the belief band, Alice reveals per her true cutoff. *)
  let b = Swap.Bayesian.belief [ (0.5, 0.1); (0.5, 0.5) ] in
  let p_star = 2. in
  let band = Swap.Bayesian.p_t2_band_mixed p ~belief_on_alice:b ~p_star in
  let gbm = Swap.Params.gbm p in
  let rng = Numerics.Rng.create ~seed:1234 () in
  let trials = 60_000 in
  let successes = ref 0 in
  for _ = 1 to trials do
    let alpha =
      if Numerics.Rng.uniform rng < 0.5 then 0.1 else 0.5
    in
    let k3 =
      Swap.Cutoff.p_t3_low (Swap.Params.with_alpha_alice p alpha) ~p_star
    in
    let p_t2 =
      Stochastic.Gbm.sample rng gbm ~p0:p.Swap.Params.p0 ~tau:p.Swap.Params.tau_a
    in
    if Swap.Intervals.contains band p_t2 then begin
      let p_t3 = Stochastic.Gbm.sample rng gbm ~p0:p_t2 ~tau:p.Swap.Params.tau_b in
      if p_t3 > k3 then incr successes
    end
  done;
  let mc = float_of_int !successes /. float_of_int trials in
  let analytic =
    Swap.Bayesian.ex_ante_success_rate p ~belief_on_alice:b ~p_star
  in
  if abs_float (mc -. analytic) > 0.01 then
    Alcotest.failf "Bayesian MC %g vs analytic %g" mc analytic

let test_bayesian_validation () =
  (match Swap.Bayesian.belief [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty belief rejected");
  (match Swap.Bayesian.belief [ (0., 0.3) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero weight rejected");
  let b = Swap.Bayesian.belief [ (2., 0.2); (2., 0.4) ] in
  check_float ~tol:1e-12 "weights normalised" 0.5 b.Swap.Bayesian.weights.(0);
  check_float ~tol:1e-12 "mean alpha" 0.3
    ((b.Swap.Bayesian.weights.(0) *. b.Swap.Bayesian.alphas.(0))
    +. (b.Swap.Bayesian.weights.(1) *. b.Swap.Bayesian.alphas.(1)))

(* --- Griefing ------------------------------------------------------------------------- *)

let test_griefing_costs_positive () =
  let g = Swap.Griefing.analyse p ~p_star:2. in
  if g.Swap.Griefing.attacker_cost <= 0. then
    Alcotest.fail "attacking must cost something";
  if g.Swap.Griefing.victim_damage <= 0. then
    Alcotest.fail "the victim must be damaged";
  check_float ~tol:1e-9 "factor consistency"
    (g.Swap.Griefing.victim_damage /. g.Swap.Griefing.attacker_cost)
    g.Swap.Griefing.griefing_factor;
  (* Victim's capital is locked from t2 until t7 = 3 tau_b later. *)
  check_float ~tol:1e-9 "lock hours" (3. *. 4.) g.Swap.Griefing.victim_lock_hours

let test_griefing_worse_for_impatient_victims () =
  let base = Swap.Griefing.analyse p ~p_star:2. in
  let impatient =
    Swap.Griefing.analyse (Swap.Params.with_r_bob p 0.03) ~p_star:2.
  in
  if impatient.Swap.Griefing.griefing_factor
     <= base.Swap.Griefing.griefing_factor
  then Alcotest.fail "impatient victims must suffer a higher factor"

let test_griefing_deposit_deters () =
  let p' = Swap.Params.with_r_bob p 0.03 in
  match Swap.Griefing.deterrence_deposit p' ~p_star:2. with
  | None -> Alcotest.fail "a deterrence deposit must exist"
  | Some q ->
    let at = Swap.Griefing.analyse ~q_alice:q p' ~p_star:2. in
    if at.Swap.Griefing.griefing_factor > 1. +. 1e-3 then
      Alcotest.fail "the deposit must push the factor to 1";
    let below = Swap.Griefing.analyse ~q_alice:(q /. 2.) p' ~p_star:2. in
    if below.Swap.Griefing.griefing_factor <= 1. then
      Alcotest.fail "half the deposit must not suffice"

let test_griefing_trivial_when_factor_below_one () =
  (* Symmetric defaults already have factor < 1: no deposit needed. *)
  match Swap.Griefing.deterrence_deposit p ~p_star:2. with
  | Some 0. -> ()
  | Some q -> Alcotest.failf "expected 0 deposit, got %g" q
  | None -> Alcotest.fail "expected Some 0."

(* --- Repeated interaction --------------------------------------------------------------- *)

let test_repeated_surplus_positive () =
  if Swap.Repeated.surplus_per_trade p ~p_star:2. <= 0. then
    Alcotest.fail "trade surplus must be positive at defaults"

let test_repeated_continuation_value_monotone () =
  let pv tpw =
    Swap.Repeated.continuation_value p ~p_star:2.
      { Swap.Repeated.trades_per_week = tpw; horizon_weeks = 26. }
  in
  if not (pv 1. < pv 7. && pv 7. < pv 56.) then
    Alcotest.fail "continuation value must grow with trade frequency"

let test_repeated_bistability () =
  let solve tpw =
    Swap.Repeated.solve p ~p_star:2.
      { Swap.Repeated.trades_per_week = tpw; horizon_weeks = 26. }
  in
  let casual = solve 0.5 in
  let intense = solve 56. in
  if casual.Swap.Repeated.alpha_endogenous > 0.01 then
    Alcotest.fail "casual relationships must unravel";
  check_float ~tol:1e-6 "one-shot SR is zero" 0. casual.Swap.Repeated.sr_one_shot;
  if intense.Swap.Repeated.alpha_endogenous < 0.3 then
    Alcotest.fail "intense relationships must sustain at least the paper's alpha";
  if intense.Swap.Repeated.sr_endogenous <= 0.9 then
    Alcotest.fail "sustained premium must make swaps near-certain"

(* --- Relationship simulation ------------------------------------------------------ *)

let test_relationship_faithful_beats_opportunist () =
  let open Swap.Relationship in
  let total (a, b, _) = a +. b in
  let ff = mean_totals ~relationships:150 p ~alice:Faithful ~bob:Faithful in
  let oo =
    mean_totals ~relationships:150 p ~alice:Opportunist ~bob:Opportunist
  in
  if total ff <= total oo then
    Alcotest.fail "faithful pairs must out-earn opportunist pairs";
  let _, _, rounds_ff = ff and _, _, rounds_oo = oo in
  if rounds_ff <= rounds_oo then
    Alcotest.fail "faithful pairs must survive longer"

let test_relationship_collateral_extends_life () =
  let open Swap.Relationship in
  let _, _, bare = mean_totals ~relationships:150 p ~alice:Faithful ~bob:Faithful in
  let _, _, secured =
    mean_totals ~relationships:150 ~q:0.5 p ~alice:Faithful ~bob:Faithful
  in
  if secured <= 3. *. bare then
    Alcotest.fail "a Section IV deposit must extend relationships several-fold"

let test_relationship_grim_trigger_semantics () =
  let open Swap.Relationship in
  let r = run ~seed:7 ~rounds:50 p ~alice:Faithful ~bob:Faithful in
  (match r.ended with
  | Horizon ->
    Alcotest.(check int) "horizon means all rounds" 50 r.rounds_completed
  | Defection { round; _ } ->
    Alcotest.(check int) "defection round counts completed swaps" round
      r.rounds_completed);
  if r.alice_total <= 0. || r.bob_total <= 0. then
    Alcotest.fail "totals must be positive"

let test_relationship_validation () =
  match
    Swap.Relationship.run ~gap_hours:2. p ~alice:Swap.Relationship.Faithful
      ~bob:Swap.Relationship.Faithful
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "too-short gaps must be rejected"

(* --- Equilibrium verification ------------------------------------------------------ *)

let test_equilibrium_alice_best_response () =
  List.iter
    (fun p_star ->
      let r = Swap.Equilibrium.check_alice_cutoff p ~p_star in
      if not r.Swap.Equilibrium.is_best_response then
        Alcotest.failf "Eq. 18 beaten by %s at P*=%g"
          r.Swap.Equilibrium.best_deviation p_star)
    [ 1.8; 2.; 2.2 ]

let test_equilibrium_bob_best_response () =
  List.iter
    (fun p_star ->
      let r = Swap.Equilibrium.check_bob_band p ~p_star in
      if not r.Swap.Equilibrium.is_best_response then
        Alcotest.failf "band beaten by %s at P*=%g"
          r.Swap.Equilibrium.best_deviation p_star)
    [ 1.8; 2.; 2.2 ]

let test_equilibrium_detects_bad_candidates () =
  (* Sanity: a deliberately wrong cutoff IS beaten by a probe. *)
  let k3 = Swap.Cutoff.p_t3_low p ~p_star:2. in
  let band = Swap.Cutoff.p_t2_band p ~p_star:2. in
  let wrong = Swap.Utility.a_t1_cont p ~p_star:2. ~k3:(k3 *. 2.) ~band in
  let right = Swap.Utility.a_t1_cont p ~p_star:2. ~k3 ~band in
  if wrong >= right then Alcotest.fail "doubling the cutoff must cost Alice"

(* --- properties ------------------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"staking SR within [0,1]" ~count:25
      (pair (float_range 0. 0.01) (float_range 0. 0.01))
      (fun (ya, yb) ->
        let s = Swap.Staking.create p ~yield_a:ya ~yield_b:yb in
        let sr = Swap.Staking.success_rate s ~p_star:2. in
        sr >= 0. && sr <= 1. +. 1e-9);
    Test.make ~name:"fee SR decreasing in fee_b" ~count:15
      (pair (float_range 0. 0.08) (float_range 0.005 0.05))
      (fun (fee, bump) ->
        let sr f =
          Swap.Fees.success_rate (Swap.Fees.create p ~fee_a:0. ~fee_b:f)
            ~p_star:2.
        in
        sr (fee +. bump) <= sr fee +. 1e-9);
    Test.make ~name:"commitment SR dominates rational SR" ~count:10
      (float_range 0.06 0.15)
      (fun sigma ->
        let p' = Swap.Params.with_sigma p sigma in
        let r = Swap.Optionality.value p' ~p_star:2. Swap.Optionality.rational in
        let c =
          Swap.Optionality.value p' ~p_star:2. Swap.Optionality.both_committed
        in
        c.Swap.Optionality.success_rate
        >= r.Swap.Optionality.success_rate -. 1e-9);
  ]

let () =
  let props = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "extensions"
    [
      ( "optionality",
        [
          Alcotest.test_case "rational regime = baseline" `Quick
            test_rational_regime_matches_baseline;
          Alcotest.test_case "full commitment -> SR 1" `Quick
            test_full_commitment_always_succeeds;
          Alcotest.test_case "commitment helps counterparty" `Quick
            test_commitment_helps_counterparty;
          Alcotest.test_case "options appreciate with volatility" `Quick
            test_option_values_grow_with_volatility;
        ] );
      ( "selection",
        [
          Alcotest.test_case "plain matches baseline" `Quick
            test_selection_plain_matches_baseline;
          Alcotest.test_case "collateral beats plain on surplus" `Quick
            test_selection_collateral_beats_plain_on_surplus;
          Alcotest.test_case "choice consistency" `Quick
            test_selection_choice_consistency;
          Alcotest.test_case "premium shifts surplus to Bob" `Quick
            test_premium_shifts_surplus_to_bob;
        ] );
      ( "staking",
        [
          Alcotest.test_case "zero yields = baseline" `Quick
            test_staking_zero_reduces_to_baseline;
          Alcotest.test_case "yield directions" `Quick test_staking_directions;
          Alcotest.test_case "validation" `Quick test_staking_validation;
        ] );
      ( "fees",
        [
          Alcotest.test_case "zero fees = baseline" `Quick
            test_fees_zero_reduces_to_baseline;
          Alcotest.test_case "fees raise cutoff, lower SR" `Quick
            test_fees_raise_cutoff_and_lower_sr;
          Alcotest.test_case "feasible band shrinks" `Quick
            test_fees_band_shrinks;
          Alcotest.test_case "notional scaling and break-even" `Quick
            test_fees_notional_scaling;
          Alcotest.test_case "validation" `Quick test_fees_validation;
        ] );
      ( "relationship",
        [
          Alcotest.test_case "faithful beats opportunist" `Slow
            test_relationship_faithful_beats_opportunist;
          Alcotest.test_case "collateral extends life" `Slow
            test_relationship_collateral_extends_life;
          Alcotest.test_case "grim-trigger semantics" `Quick
            test_relationship_grim_trigger_semantics;
          Alcotest.test_case "validation" `Quick test_relationship_validation;
        ] );
      ( "equilibrium",
        [
          Alcotest.test_case "alice's cutoff is a best response" `Quick
            test_equilibrium_alice_best_response;
          Alcotest.test_case "bob's band is a best response" `Quick
            test_equilibrium_bob_best_response;
          Alcotest.test_case "wrong candidates are beaten" `Quick
            test_equilibrium_detects_bad_candidates;
        ] );
      ( "bayesian",
        [
          Alcotest.test_case "point belief = complete info" `Quick
            test_bayesian_point_belief_is_complete_info;
          Alcotest.test_case "dispersion lowers ex-ante SR" `Quick
            test_bayesian_spread_lowers_ex_ante_sr;
          Alcotest.test_case "adverse selection" `Quick
            test_bayesian_adverse_selection;
          Alcotest.test_case "Monte-Carlo cross-check" `Slow
            test_bayesian_mc_cross_check;
          Alcotest.test_case "belief validation" `Quick
            test_bayesian_validation;
        ] );
      ( "griefing",
        [
          Alcotest.test_case "costs and damage positive" `Quick
            test_griefing_costs_positive;
          Alcotest.test_case "impatient victims suffer more" `Quick
            test_griefing_worse_for_impatient_victims;
          Alcotest.test_case "deterrence deposit works" `Quick
            test_griefing_deposit_deters;
          Alcotest.test_case "no deposit needed below factor 1" `Quick
            test_griefing_trivial_when_factor_below_one;
        ] );
      ( "repeated",
        [
          Alcotest.test_case "positive trade surplus" `Quick
            test_repeated_surplus_positive;
          Alcotest.test_case "continuation value monotone" `Quick
            test_repeated_continuation_value_monotone;
          Alcotest.test_case "bistable reputation map" `Quick
            test_repeated_bistability;
        ] );
      ( "generic_model",
        [
          Alcotest.test_case "GBM matches closed forms" `Quick
            test_generic_gbm_matches_closed_form;
          Alcotest.test_case "mean reversion raises SR" `Quick
            test_generic_ou_raises_sr;
          Alcotest.test_case "OU Monte-Carlo agreement" `Slow
            test_generic_ou_mc_agrees;
          Alcotest.test_case "OU lowers the t3 cutoff" `Quick
            test_generic_ou_lowers_cutoff;
        ] );
      ( "bargaining",
        [
          Alcotest.test_case "Nash rate feasible and positive" `Quick
            test_nash_rate_in_band;
          Alcotest.test_case "Nash rate locally optimal" `Quick
            test_nash_rate_locally_optimal;
          Alcotest.test_case "engagement game structure" `Quick
            test_engagement_game_structure;
          Alcotest.test_case "consistent with initiation set" `Quick
            test_engagement_matches_initiation_set;
        ] );
      ("properties", props);
    ]
