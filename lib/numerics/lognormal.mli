(** Lognormal distribution parameterised by the mean [mu] and standard
    deviation [sigma] of the underlying normal: [X = exp N(mu, sigma^2)].

    The GBM transition law of the paper (Eq. 1) is lognormal with
    [mu = ln P_t + (drift - sigma^2/2) tau] and [sigma = vol sqrt tau];
    see {!Stochastic.Gbm}. *)

type t = private { mu : float; sigma : float }

val create : mu:float -> sigma:float -> t
(** @raise Invalid_argument if [sigma <= 0.]. *)

val pdf : t -> float -> float
(** Density at [x]; [0.] for [x <= 0.]. *)

val sf : t -> float -> float
(** Survival function [1 - cdf], cancellation-free. *)

val mean : t -> float
(** [exp (mu + sigma^2 / 2)]. *)
