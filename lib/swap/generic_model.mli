(** Price-model-generic backward induction.

    The paper's solution method only uses the one-step transition law
    of the price at the decision horizons; nothing about it is specific
    to geometric Brownian motion.  This module re-solves the game for
    {e any} model whose conditional transitions are lognormal —
    covering the paper's GBM (where it reproduces the closed-form
    results exactly; tested) and the mean-reverting exponential
    Ornstein–Uhlenbeck model of {!Stochastic.Exp_ou} (stablecoin-like
    tokens). *)

type price_model = {
  label : string;
  transition : p0:float -> tau:float -> Numerics.Lognormal.t;
}

val gbm : Params.t -> price_model
(** The paper's model, built from the [mu]/[sigma] in the parameters. *)

val exp_ou : Stochastic.Exp_ou.t -> price_model

val p_t3_low : Params.t -> price_model -> p_star:float -> float
(** Alice's reveal cutoff: the root of
    [(1 + alpha_A) E[P_t5 | P_t3] e^(-r_A tau_b) = Eq. 16], solved
    numerically (the expectation need not be linear in the spot). *)

val b_t2_cont : Params.t -> price_model -> p_star:float -> p_t2:float -> float
(** Bob's Eq. 21 under the generic transitions (the inner integral over
    Alice's stop region is evaluated by {!Utility.integrate_law}). *)

val p_t2_band : Params.t -> price_model -> p_star:float -> Intervals.t

val success_rate :
  ?quad_nodes:int -> Params.t -> price_model -> p_star:float -> float

val sampler : price_model -> Montecarlo.sampler
(** Exact transition sampling for Monte-Carlo cross-checks. *)

val policy : Params.t -> price_model -> p_star:float -> Agent.t
(** The equilibrium policy under the model (initiation is approximated
    by requiring a nonempty continuation band at the agreed rate). *)
