open Numerics

type t = { kappa : float; theta : float; sigma : float }

let create ~kappa ~theta_price ~sigma =
  if kappa <= 0. then invalid_arg "Exp_ou.create: requires kappa > 0";
  if theta_price <= 0. then
    invalid_arg "Exp_ou.create: requires theta_price > 0";
  if sigma <= 0. then invalid_arg "Exp_ou.create: requires sigma > 0";
  { kappa; theta = log theta_price; sigma }

let moments t ~p0 ~tau =
  if p0 <= 0. then invalid_arg "Exp_ou: requires p0 > 0";
  if tau <= 0. then invalid_arg "Exp_ou: requires tau > 0";
  let decay = exp (-.t.kappa *. tau) in
  let mean = t.theta +. ((log p0 -. t.theta) *. decay) in
  let var = t.sigma *. t.sigma *. (1. -. (decay *. decay)) /. (2. *. t.kappa) in
  (mean, sqrt var)

let transition t ~p0 ~tau =
  let mu, sigma = moments t ~p0 ~tau in
  Lognormal.create ~mu ~sigma

let half_life t = log 2. /. t.kappa
