(** Merton jump-diffusion price model — an extension beyond the paper's
    GBM assumption, used for the fat-tail ablation experiment:

    [d ln P = (mu - sigma^2/2) dt + sigma dW + sum of lognormal jumps]

    with jump arrivals Poisson([lambda]) and jump sizes
    [ln J ~ N(jump_mean, jump_stddev^2)]. *)

type t = private {
  gbm : Gbm.t;
  lambda : float;  (** Jump intensity per unit time. *)
  jump_mean : float;
  jump_stddev : float;
}

val create :
  mu:float -> sigma:float -> lambda:float -> jump_mean:float ->
  jump_stddev:float -> t
(** @raise Invalid_argument on nonpositive [sigma], negative [lambda], or
    negative [jump_stddev]. *)

val sample : Numerics.Rng.t -> t -> p0:float -> tau:float -> float
(** Exact draw of [P_{t+tau}]: Poisson jump count, then lognormal
    components composed. *)

val expectation : t -> p0:float -> tau:float -> float
(** [p0 exp ((mu + lambda (exp (jump_mean + jump_stddev^2/2) - 1)) tau)]. *)
