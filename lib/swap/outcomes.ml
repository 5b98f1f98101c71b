open Stochastic

type distribution = {
  success : float;
  bob_balks_low : float;
  bob_balks_high : float;
  alice_reneges : float;
}

let distribution ?quad_nodes (p : Params.t) ~p_star =
  let gbm = Params.gbm p in
  let k3 = Cutoff.p_t3_low p ~p_star in
  match Cutoff.p_t2_band_endpoints p ~p_star with
  | None -> { success = 0.; bob_balks_low = 0.; bob_balks_high = 0.;
              alice_reneges = 0. }
  | Some (lo, hi) ->
    let bob_balks_low = Gbm.cdf gbm ~x:lo ~p0:p.Params.p0 ~tau:p.Params.tau_a in
    let bob_balks_high =
      if hi = infinity then 0.
      else Gbm.sf gbm ~x:hi ~p0:p.Params.p0 ~tau:p.Params.tau_a
    in
    let band = Cutoff.p_t2_band p ~p_star in
    let success = Success.analytic_given ?quad_nodes p ~k3 ~band in
    let leg = Gbm.leg gbm ~tau:p.Params.tau_b in
    let alice_reneges =
      Utility.integrate_law ?quad_nodes
        (Gbm.transition gbm ~p0:p.Params.p0 ~tau:p.Params.tau_a)
        band
        ~f:(fun x -> Gbm.leg_cdf leg ~k:k3 ~p0:x)
    in
    { success; bob_balks_low; bob_balks_high; alice_reneges }

let blame_share_bob d =
  let bob = d.bob_balks_low +. d.bob_balks_high in
  let failures = bob +. d.alice_reneges in
  if failures <= 0. then nan else bob /. failures

type durations = {
  expected_hours : float;
  success_hours : float;
  failure_hours : float;
}

let durations ?quad_nodes (p : Params.t) ~p_star =
  let tl = Timeline.ideal p in
  let success_hours = Timeline.duration_success tl in
  let failure_hours = Timeline.duration_failure tl in
  let d = distribution ?quad_nodes p ~p_star in
  (* A t2 balk still waits for Alice's refund at t8. *)
  let p_fail = d.bob_balks_low +. d.bob_balks_high +. d.alice_reneges in
  {
    expected_hours =
      (d.success *. success_hours) +. (p_fail *. failure_hours);
    success_hours;
    failure_hours;
  }
