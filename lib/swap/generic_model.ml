open Numerics

type price_model = {
  label : string;
  transition : p0:float -> tau:float -> Lognormal.t;
}

let gbm (p : Params.t) =
  let g = Params.gbm p in
  {
    label = "gbm";
    transition = (fun ~p0 ~tau -> Stochastic.Gbm.transition g ~p0 ~tau);
  }

let exp_ou ou =
  {
    label = "exp-ou";
    transition = (fun ~p0 ~tau -> Stochastic.Exp_ou.transition ou ~p0 ~tau);
  }

let expectation model ~p0 ~tau = Lognormal.mean (model.transition ~p0 ~tau)

(* Alice at t3: continue iff the discounted expected Token_b receipt
   beats the refund.  The left side is increasing in the spot for any
   lognormal-transition model with positive dependence, so a sign scan
   plus Brent locates the unique cutoff. *)
let a_t3_cont (p : Params.t) model ~p_t3 =
  (1. +. p.Params.alice.alpha)
  *. expectation model ~p0:p_t3 ~tau:p.Params.tau_b
  *. Utility.discount ~r:p.Params.alice.r ~horizon:p.Params.tau_b

let p_t3_low (p : Params.t) model ~p_star =
  let stop = Utility.a_t3_stop p ~p_star in
  let g x = a_t3_cont p model ~p_t3:x -. stop in
  let lo = p_star *. 1e-6 and hi = p_star *. 1e6 in
  if g lo > 0. then 0.
  else if g hi < 0. then infinity
  else Root.brent ~tol:(1e-13 *. p_star) g ~a:lo ~b:hi

let b_t3_stop (p : Params.t) model ~p_t3 =
  expectation model ~p0:p_t3 ~tau:(2. *. p.Params.tau_b)
  *. Utility.discount ~r:p.Params.bob.r ~horizon:(2. *. p.Params.tau_b)

(* Staged as Utility.b_t2_cont: the cutoff is solved once per P*. *)
let b_t2_cont (p : Params.t) model ~p_star =
  let k3 = p_t3_low p model ~p_star in
  let cont = Utility.b_t3_cont p ~p_star in
  let disc = Utility.discount ~r:p.Params.bob.r ~horizon:p.Params.tau_b in
  (* Alice's stop region (0, k3), over which Bob's refund value is
     integrated: the integrand need not be linear in the price, so
     quadrature, in the law's own coordinate (a fixed grid over (0, k3)
     misses the mass of a law far below k3 and turned rounding into
     spurious bands). *)
  let stop_region =
    if k3 > 0. then Intervals.of_list [ { Intervals.lo = 0.; hi = k3 } ]
    else Intervals.empty
  in
  fun ~p_t2 ->
    let law = model.transition ~p0:p_t2 ~tau:p.Params.tau_b in
    let stop_part =
      Utility.integrate_law ~quad_nodes:128 law stop_region ~f:(fun y ->
          b_t3_stop p model ~p_t3:y)
    in
    ((Lognormal.sf law k3 *. cont) +. stop_part) *. disc

let p_t2_band (p : Params.t) model ~p_star =
  Cutoff.t2_region p ~p_star (b_t2_cont p model ~p_star)

let success_rate ?quad_nodes (p : Params.t) model ~p_star =
  let k3 = p_t3_low p model ~p_star in
  let band = p_t2_band p model ~p_star in
  if Intervals.is_empty band then 0.
  else
    Utility.integrate_law ?quad_nodes
      (model.transition ~p0:p.Params.p0 ~tau:p.Params.tau_a)
      band
      ~f:(fun x ->
        Lognormal.sf (model.transition ~p0:x ~tau:p.Params.tau_b) k3)

let sampler model : Montecarlo.sampler =
 fun ~tau rng ~p0 ->
  let law = model.transition ~p0 ~tau in
  Rng.lognormal rng ~mu:law.Lognormal.mu ~sigma:law.Lognormal.sigma

let policy (p : Params.t) model ~p_star =
  let k3 = p_t3_low p model ~p_star in
  let band = p_t2_band p model ~p_star in
  {
    Agent.name = "rational (" ^ model.label ^ ")";
    alice_t1 =
      (fun ~p_star:_ ->
        if Intervals.is_empty band then Agent.Stop else Agent.Cont);
    bob_t2 =
      (fun ~p_t2 ->
        if Intervals.contains band p_t2 then Agent.Cont else Agent.Stop);
    alice_t3 = (fun ~p_t3 -> if p_t3 > k3 then Agent.Cont else Agent.Stop);
    bob_t4 = Agent.Cont;
  }
