open Stochastic

type t = { params : Params.t; yield_a : float; yield_b : float }

let create params ~yield_a ~yield_b =
  if yield_a < 0. || yield_b < 0. then
    invalid_arg "Staking.create: negative yield";
  { params; yield_a; yield_b }

(* Alice at t3: cont forgoes Token_a yield until t6 (eps_b + tau_a h),
   stop until t8 (eps_b + 2 tau_a h); the difference is tau_a hours of
   yield on P*, which shifts the indifference price down. *)
let p_t3_low { params = p; yield_a; _ } ~p_star =
  let base_stop = exp (-.p.Params.alice.r *. (p.Params.eps_b +. (2. *. p.Params.tau_a))) in
  let net = p_star *. (base_stop -. (yield_a *. p.Params.tau_a)) in
  max 0.
    (net
    *. exp ((p.Params.alice.r -. p.Params.mu) *. p.Params.tau_b)
    /. (1. +. p.Params.alice.alpha))

(* Bob at t2: his Token_b sits locked for 2 tau_b hours when the swap
   completes (claimed at t5) and 3 tau_b hours when it is refunded at
   t7; the forgone yield is linear in the current price. *)
(* Staged as Utility.b_t2_cont. *)
let b_t2_cont ({ params = p; yield_b; _ } as t) ~p_star =
  let k3 = p_t3_low t ~p_star in
  let leg = Gbm.leg (Params.gbm p) ~tau:p.Params.tau_b in
  let base = Utility.b_t2_cont p ~p_star ~k3 in
  fun ~p_t2 ->
    let prob_refund = Gbm.leg_cdf leg ~k:k3 ~p0:p_t2 in
    let expected_lock_hours = p.Params.tau_b *. (2. +. prob_refund) in
    base ~p_t2 -. (yield_b *. p_t2 *. expected_lock_hours)

let p_t2_band t ~p_star = Cutoff.t2_region t.params ~p_star (b_t2_cont t ~p_star)

let success_rate ?quad_nodes t ~p_star =
  let p = t.params in
  let k3 = p_t3_low t ~p_star in
  let band = p_t2_band t ~p_star in
  if Intervals.is_empty band then 0.
  else Success.analytic_given ?quad_nodes p ~k3 ~band
