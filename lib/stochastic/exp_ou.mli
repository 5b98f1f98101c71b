(** Exponential Ornstein–Uhlenbeck (Schwartz one-factor) price model:
    the log price mean-reverts,

    {v d ln P = kappa (theta - ln P) dt + sigma dW v}

    with exact Gaussian transitions.  This is the natural model for a
    {e stablecoin-like} Token_b whose price is pulled back to a peg —
    a regime the paper's GBM cannot express and one where HTLC swaps
    behave very differently (see the "stablecoin" experiment). *)

type t = private {
  kappa : float;  (** Mean-reversion speed per unit time, > 0. *)
  theta : float;  (** Long-run mean of [ln P]. *)
  sigma : float;  (** Volatility of the log price, > 0. *)
}

val create : kappa:float -> theta_price:float -> sigma:float -> t
(** [theta_price] is the long-run {e price} level (its log is stored).
    @raise Invalid_argument unless [kappa > 0.], [theta_price > 0.],
    [sigma > 0.]. *)

val transition : t -> p0:float -> tau:float -> Numerics.Lognormal.t
(** Exact conditional law of [P_{t+tau}] given [P_t = p0]. *)

val half_life : t -> float
(** Time for a log-price deviation to halve: [ln 2 / kappa]. *)
