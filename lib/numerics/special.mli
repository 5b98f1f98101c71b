(** Special functions implemented from scratch (no external dependency).

    Accuracy targets: relative error below [1e-12] on the tested domains,
    which is ample for the utility and success-rate integrals of the swap
    model (the paper reports two to three significant digits). *)

val pi : float
(** The constant pi. *)

val sqrt2 : float
(** sqrt 2. *)

val sqrt_2pi : float
(** sqrt (2 pi). *)

val log_gamma : float -> float
(** [log_gamma x] is the natural logarithm of the Gamma function for
    [x > 0].  Lanczos approximation (g = 7, 9 coefficients).
    @raise Invalid_argument if [x <= 0.]. *)

val erfc : float -> float
(** Complementary error function, from a 28-term Chebyshev series in
    [t = 2 / (2 + |x|)] (Numerical Recipes' form, fitted in-repo).
    Relative error below 7e-15 for [|x| <= 6]; beyond, the rounding of
    [-x^2] in the exponent adds up to [x^2] ulp.  No [1 - erf]
    cancellation, and no allocation beyond the boxed result. *)
