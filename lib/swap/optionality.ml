type regime = { alice_committed : bool; bob_committed : bool }

let rational = { alice_committed = false; bob_committed = false }
let both_committed = { alice_committed = true; bob_committed = true }
let alice_committed = { alice_committed = true; bob_committed = false }
let bob_committed = { alice_committed = false; bob_committed = true }

type valuation = {
  regime : regime;
  alice_t1 : float;
  bob_t1 : float;
  success_rate : float;
}

let full_band = Intervals.of_list [ { Intervals.lo = 0.; hi = infinity } ]

(* The committed agent's cutoff degenerates (Alice: k3 = 0, she always
   reveals; Bob: the whole positive axis, he always deploys); the other
   agent's threshold is re-solved against that behaviour.  Bob's best
   response to a committed Alice is AC3's band (k3 = 0), and to a
   rational Alice the equilibrium band. *)
let solve_regime (p : Params.t) ~p_star regime =
  if regime.alice_committed then
    (0., if regime.bob_committed then full_band else Ac3.bob_band p ~p_star)
  else
    ( Cutoff.p_t3_low p ~p_star,
      if regime.bob_committed then full_band else Cutoff.p_t2_band p ~p_star )

let value ?quad_nodes (p : Params.t) ~p_star regime =
  let k3, band = solve_regime p ~p_star regime in
  {
    regime;
    alice_t1 = Utility.a_t1_cont ?quad_nodes p ~p_star ~k3 ~band;
    bob_t1 = Utility.b_t1_cont ?quad_nodes p ~p_star ~k3 ~band;
    success_rate = Success.analytic_given ?quad_nodes p ~k3 ~band;
  }

type option_values = {
  alice_option : float;
  bob_option : float;
  sr_rational : float;
  sr_all_committed : float;
}

let option_values ?quad_nodes (p : Params.t) ~p_star =
  let v_rational = value ?quad_nodes p ~p_star rational in
  let v_alice_committed = value ?quad_nodes p ~p_star alice_committed in
  let v_bob_committed = value ?quad_nodes p ~p_star bob_committed in
  let v_both = value ?quad_nodes p ~p_star both_committed in
  {
    alice_option = v_rational.alice_t1 -. v_alice_committed.alice_t1;
    bob_option = v_rational.bob_t1 -. v_bob_committed.bob_t1;
    sr_rational = v_rational.success_rate;
    sr_all_committed = v_both.success_rate;
  }
