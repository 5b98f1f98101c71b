open Numerics

type t = { mu : float; sigma : float }

let create ~mu ~sigma =
  if sigma <= 0. then invalid_arg "Gbm.create: requires sigma > 0";
  { mu; sigma }

let check_args ~p0 ~tau =
  if p0 <= 0. then invalid_arg "Gbm: requires p0 > 0";
  if tau <= 0. then invalid_arg "Gbm: requires tau > 0"

let log_return_mean { mu; sigma } ~tau = (mu -. (0.5 *. sigma *. sigma)) *. tau
let log_return_stddev { sigma; _ } ~tau = sigma *. sqrt tau

let transition t ~p0 ~tau =
  check_args ~p0 ~tau;
  Lognormal.create
    ~mu:(log p0 +. log_return_mean t ~tau)
    ~sigma:(log_return_stddev t ~tau)

let expectation t ~p0 ~tau =
  check_args ~p0 ~tau;
  p0 *. exp (t.mu *. tau)

let pdf t ~x ~p0 ~tau = Lognormal.pdf (transition t ~p0 ~tau) x

type leg = { drift : float; scale : float; half_sd : float; growth : float }

let leg t ~tau =
  if tau <= 0. then invalid_arg "Gbm: requires tau > 0";
  {
    drift = log_return_mean t ~tau;
    scale = sqrt (2. *. tau) *. t.sigma;
    half_sd = t.sigma *. sqrt (0.5 *. tau);
    growth = exp (t.mu *. tau);
  }

(* The paper's printed form:
   C(x, P_t, tau) = 1/2 erfc ((ln (x / P_t) - (mu - sigma^2/2) tau)
                               / (sqrt (2 tau) sigma))
   Note the sign: this equals P[P_{t+tau} <= x] because
   erfc(-z)/2 = Phi(z sqrt 2); we keep the exact expression.  With z as
   above, the partial expectations are p0 e^{mu tau} erfc (+-(z - v)) / 2
   with v = sigma sqrt (tau / 2) (Black-Scholes d1 = sqrt 2 (v - z)). *)
let[@inline] leg_z l ~k ~p0 = (log (k /. p0) -. l.drift) /. l.scale

let leg_cdf l ~k ~p0 =
  if k <= 0. then 0. else 0.5 *. Special.erfc (-.leg_z l ~k ~p0)

let leg_sf l ~k ~p0 =
  if k <= 0. then 1. else 0.5 *. Special.erfc (leg_z l ~k ~p0)

let leg_pe_above l ~k ~p0 =
  if k <= 0. then p0 *. l.growth
  else p0 *. l.growth *. 0.5 *. Special.erfc (leg_z l ~k ~p0 -. l.half_sd)

let leg_pe_below l ~k ~p0 =
  if k <= 0. then 0.
  else p0 *. l.growth *. 0.5 *. Special.erfc (l.half_sd -. leg_z l ~k ~p0)

let cdf t ~x ~p0 ~tau =
  check_args ~p0 ~tau;
  leg_cdf (leg t ~tau) ~k:x ~p0

let sf t ~x ~p0 ~tau =
  check_args ~p0 ~tau;
  leg_sf (leg t ~tau) ~k:x ~p0

let partial_expectation_below t ~k ~p0 ~tau =
  check_args ~p0 ~tau;
  leg_pe_below (leg t ~tau) ~k ~p0

(* The exact transition draw, shared by every sampler: [drift] and [sd]
   are [log_return_mean] and [log_return_stddev] at the step's [tau]. *)
let[@inline] draw rng ~drift ~sd ~p0 =
  p0 *. exp (drift +. (sd *. Rng.normal rng))

let sample rng t ~p0 ~tau =
  check_args ~p0 ~tau;
  draw rng ~drift:(log_return_mean t ~tau) ~sd:(log_return_stddev t ~tau) ~p0

let sampler t ~tau =
  if tau <= 0. then invalid_arg "Gbm: requires tau > 0";
  let drift = log_return_mean t ~tau and sd = log_return_stddev t ~tau in
  fun rng ~p0 -> draw rng ~drift ~sd ~p0

let sample_path rng t ~p0 ~times =
  if p0 <= 0. then invalid_arg "Gbm.sample_path: requires p0 > 0";
  let n = Array.length times in
  let out = Array.make n p0 in
  let prev_t = ref 0. and prev_p = ref p0 in
  for i = 0 to n - 1 do
    let dt = times.(i) -. !prev_t in
    if dt <= 0. then
      invalid_arg "Gbm.sample_path: times must be strictly increasing (> 0)";
    let p =
      draw rng ~drift:(log_return_mean t ~tau:dt)
        ~sd:(log_return_stddev t ~tau:dt) ~p0:!prev_p
    in
    out.(i) <- p;
    prev_t := times.(i);
    prev_p := p
  done;
  out
