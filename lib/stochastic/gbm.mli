(** Geometric Brownian motion — the token-price model of the paper
    (Assumption 4, Eq. 1):

    {v ln (P_{t+tau} / P_t) = (mu - sigma^2/2) tau + sigma (W_{t+tau} - W_t) v}

    All closed forms below are exactly the paper's [E], [P] (pdf) and [C]
    (cdf) of Section III-A. *)

type t = private { mu : float; sigma : float }
(** [mu] is the drift per unit time, [sigma] the volatility per square
    root of unit time (hours in the paper's calibration). *)

val create : mu:float -> sigma:float -> t
(** @raise Invalid_argument if [sigma <= 0.]. *)

val transition : t -> p0:float -> tau:float -> Numerics.Lognormal.t
(** The lognormal law of [P_{t+tau}] given [P_t = p0].
    @raise Invalid_argument if [p0 <= 0.] or [tau <= 0.]. *)

val expectation : t -> p0:float -> tau:float -> float
(** Paper's [E(P_t, tau) = P_t exp (mu tau)]. *)

val pdf : t -> x:float -> p0:float -> tau:float -> float
(** Paper's [P(x, P_t, tau)]: transition density at [x]. *)

val cdf : t -> x:float -> p0:float -> tau:float -> float
(** Paper's [C(x, P_t, tau)], computed with the same [erfc] form as
    printed in the paper. *)

val sf : t -> x:float -> p0:float -> tau:float -> float
(** [1 - cdf], cancellation-free. *)

val partial_expectation_below : t -> k:float -> p0:float -> tau:float -> float
(** [E[P_{t+tau} 1_{P_{t+tau} <= k} | P_t = p0]]; the time-[t2]
    utilities use the staged {!leg_pe_below} / {!leg_pe_above}. *)

(** {2 Staged transitions}

    The same closed forms with the per-[tau] constants computed once,
    for inner loops that vary the start price [p0] (the root solver and
    the quadratures of Eqs. 20-31 and 40): an evaluation then builds no
    [Lognormal.t] and allocates only its boxed result.  The functions
    above are these applied to a fresh leg.  [p0 > 0] is not checked. *)

type leg
(** The law of [P_{t+tau} / P_t] for one [tau]. *)

val leg : t -> tau:float -> leg
(** @raise Invalid_argument if [tau <= 0.]. *)

val leg_cdf : leg -> k:float -> p0:float -> float
(** [cdf t ~x:k ~p0 ~tau]. *)

val leg_sf : leg -> k:float -> p0:float -> float
(** [sf t ~x:k ~p0 ~tau]. *)

val leg_pe_above : leg -> k:float -> p0:float -> float
(** [partial_expectation_above t ~k ~p0 ~tau]. *)

val leg_pe_below : leg -> k:float -> p0:float -> float
(** [partial_expectation_below t ~k ~p0 ~tau]. *)

(** {2 Sampling}

    One formula serves every draw: [p0 exp (m + s Z)] with [Z] from
    {!Numerics.Rng.normal}, [m = log_return_mean] and
    [s = log_return_stddev] at the step's [tau].  The three entry points
    differ only in when [m] and [s] are computed, so at equal generator
    state they return the same bits. *)

val sample : Numerics.Rng.t -> t -> p0:float -> tau:float -> float
(** Exact draw from the transition law (no discretisation error).
    @raise Invalid_argument if [p0 <= 0.] or [tau <= 0.]. *)

val sampler : t -> tau:float -> Numerics.Rng.t -> p0:float -> float
(** [sampler t ~tau] computes [m] and [s] once and returns the draw for
    that step, [sample rng t ~p0 ~tau] without the per-call argument
    checks: the form for inner loops that draw many times at a few fixed
    [tau] (Monte-Carlo trials).  [p0 > 0] is not checked.
    @raise Invalid_argument if [tau <= 0.]. *)

val sample_path :
  Numerics.Rng.t -> t -> p0:float -> times:float array -> float array
(** Exact joint draw of the path at the given strictly increasing times
    (starting after 0; [P_0 = p0] is implicit); step [i] is the draw at
    [tau = times.(i) - times.(i-1)], with the arguments checked once per
    path.
    @raise Invalid_argument if [p0 <= 0.] or the times do not increase. *)

val log_return_mean : t -> tau:float -> float
(** [(mu - sigma^2/2) tau]. *)

val log_return_stddev : t -> tau:float -> float
(** [sigma sqrt tau]. *)
