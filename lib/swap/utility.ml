open Numerics
open Stochastic

let discount ~r ~horizon = exp (-.r *. horizon)

(* --- t3 ------------------------------------------------------------- *)

let a_t3_cont (p : Params.t) ~p_t3 =
  let expectation = Gbm.expectation (Params.gbm p) ~p0:p_t3 ~tau:p.tau_b in
  (1. +. p.alice.alpha) *. expectation *. discount ~r:p.alice.r ~horizon:p.tau_b

let b_t3_cont (p : Params.t) ~p_star =
  (1. +. p.bob.alpha) *. p_star
  *. discount ~r:p.bob.r ~horizon:(p.eps_b +. p.tau_a)

let a_t3_stop (p : Params.t) ~p_star =
  p_star *. discount ~r:p.alice.r ~horizon:(p.eps_b +. (2. *. p.tau_a))

let b_t3_stop (p : Params.t) ~p_t3 =
  let expectation =
    Gbm.expectation (Params.gbm p) ~p0:p_t3 ~tau:(2. *. p.tau_b)
  in
  expectation *. discount ~r:p.bob.r ~horizon:(2. *. p.tau_b)

(* --- t2 ------------------------------------------------------------- *)

let a_t2_stop (p : Params.t) ~p_star =
  p_star
  *. discount ~r:p.alice.r ~horizon:(p.tau_b +. p.eps_b +. (2. *. p.tau_a))

let b_t2_stop ~p_t2 = p_t2

(* Eq. 20.  The integrand over (k3, inf) is
   pdf(x) * (1 + alpha_A) x e^{(mu - r_A) tau_b}, whose integral is the
   partial expectation E[X 1_{X > k3}] scaled by the constant.  Staged:
   applied to (p, p_star, k3) it computes every constant once and
   returns the function of p_t2 that the solver and quadratures call. *)
let a_t2_cont (p : Params.t) ~p_star ~k3 =
  let leg = Gbm.leg (Params.gbm p) ~tau:p.tau_b in
  let cont = (1. +. p.alice.alpha) *. exp ((p.mu -. p.alice.r) *. p.tau_b) in
  let stop = a_t3_stop p ~p_star in
  let disc = discount ~r:p.alice.r ~horizon:p.tau_b in
  fun ~p_t2 ->
    ((cont *. Gbm.leg_pe_above leg ~k:k3 ~p0:p_t2)
    +. (Gbm.leg_cdf leg ~k:k3 ~p0:p_t2 *. stop))
    *. disc

(* Eq. 21.  Bob's stop payoff at t3 is x e^{2 (mu - r_B) tau_b}; its
   integral over (0, k3) is the lower partial expectation.  Staged as
   [a_t2_cont]. *)
let b_t2_cont (p : Params.t) ~p_star ~k3 =
  let leg = Gbm.leg (Params.gbm p) ~tau:p.tau_b in
  let cont = b_t3_cont p ~p_star in
  let stop = exp (2. *. (p.mu -. p.bob.r) *. p.tau_b) in
  let disc = discount ~r:p.bob.r ~horizon:p.tau_b in
  fun ~p_t2 ->
    ((Gbm.leg_sf leg ~k:k3 ~p0:p_t2 *. cont)
    +. (stop *. Gbm.leg_pe_below leg ~k:k3 ~p0:p_t2))
    *. disc

(* --- quadrature against a transition law ---------------------------- *)

(* Integral of pdf(x) f(x) over the set, in z = (ln x - mu) / sigma so
   that the nodes follow the law's mass and not the set's width (a wide
   band around a narrow law would otherwise leave most nodes where the
   density is zero).  Each interval is clipped to |z| <= 9, outside which
   the standard normal holds less than 1e-18 of its mass. *)
let z_clip = 9.

let integrate_law ?(quad_nodes = 96) (law : Lognormal.t) set ~f =
  let { Lognormal.mu; sigma } = law in
  let z_of x = if x <= 0. then neg_infinity else (log x -. mu) /. sigma in
  let g z =
    exp (-0.5 *. z *. z) /. Special.sqrt_2pi *. f (exp (mu +. (sigma *. z)))
  in
  List.fold_left
    (fun acc { Intervals.lo; hi } ->
      let a = Float.max (-.z_clip) (z_of lo)
      and b = Float.min z_clip (z_of hi) in
      if a < b then acc +. Integrate.gauss_legendre ~n:quad_nodes g ~a ~b
      else acc)
    0.
    (Intervals.intervals set)

(* --- t1 ------------------------------------------------------------- *)

let a_t1_stop ~p_star = p_star
let b_t1_stop (p : Params.t) = p.Params.p0

(* Probability mass of the transition law inside an interval set. *)
let transition_mass (p : Params.t) ~tau ~p0 set =
  let gbm = Params.gbm p in
  List.fold_left
    (fun acc { Intervals.lo; hi } ->
      let upper =
        if hi = infinity then 1. else Gbm.cdf gbm ~x:hi ~p0 ~tau
      in
      acc +. (upper -. Gbm.cdf gbm ~x:lo ~p0 ~tau))
    0.
    (Intervals.intervals set)

(* Partial expectation of the price inside the set. *)
let price_mass_inside (p : Params.t) ~tau ~p0 set =
  let gbm = Params.gbm p in
  List.fold_left
    (fun acc { Intervals.lo; hi } ->
      let upper =
        if hi = infinity then Gbm.expectation gbm ~p0 ~tau
        else Gbm.partial_expectation_below gbm ~k:hi ~p0 ~tau
      in
      acc +. (upper -. Gbm.partial_expectation_below gbm ~k:lo ~p0 ~tau))
    0.
    (Intervals.intervals set)

let a_t1_cont ?quad_nodes (p : Params.t) ~p_star ~k3 ~band =
  let law = Gbm.transition (Params.gbm p) ~p0:p.p0 ~tau:p.tau_a in
  let value = a_t2_cont p ~p_star ~k3 in
  let cont_part =
    integrate_law ?quad_nodes law band ~f:(fun x -> value ~p_t2:x)
  in
  let stop_part =
    (1. -. transition_mass p ~tau:p.tau_a ~p0:p.p0 band) *. a_t2_stop p ~p_star
  in
  (cont_part +. stop_part) *. discount ~r:p.alice.r ~horizon:p.tau_a

(* Expected price mass outside the band:
   E[X 1_{X outside}] = E[X] - sum over band of segment partial
   expectations. *)
let b_t1_cont ?quad_nodes (p : Params.t) ~p_star ~k3 ~band =
  let gbm = Params.gbm p in
  let law = Gbm.transition gbm ~p0:p.p0 ~tau:p.tau_a in
  let value = b_t2_cont p ~p_star ~k3 in
  let cont_part =
    integrate_law ?quad_nodes law band ~f:(fun x -> value ~p_t2:x)
  in
  let outside_price_mass =
    Gbm.expectation gbm ~p0:p.p0 ~tau:p.tau_a
    -. price_mass_inside p ~tau:p.tau_a ~p0:p.p0 band
  in
  (cont_part +. outside_price_mass) *. discount ~r:p.bob.r ~horizon:p.tau_a
