(** Scalar root finding. *)

val bisect :
  ?tol:float -> ?max_iter:int -> (float -> float) -> a:float -> b:float ->
  float
(** [bisect f ~a ~b] finds a root of [f] in [[a, b]] by bisection.
    @raise Invalid_argument if [f a] and [f b] have the same (nonzero)
    sign.  [tol] is the bracket-width target (default [1e-12]). *)

val brent :
  ?tol:float -> ?max_iter:int -> (float -> float) -> a:float -> b:float ->
  float
(** Brent's method (inverse quadratic interpolation + secant + bisection).
    Same bracketing precondition as {!bisect}; typically far fewer
    function evaluations. *)

val newton :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> df:(float -> float) ->
  float -> float
(** [newton ~f ~df x0] runs Newton–Raphson from [x0].  @raise Failure if it does not converge
    within [max_iter] (default 100) iterations. *)

val roots_log : (float -> float) -> a:float -> b:float -> float list
(** Every sign-change root of [f] in [[a, b]], [0 < a < b], in
    increasing order; a sample where [f] is exactly zero is returned as
    a root.  A certified adaptive scan in [ln x]: 48 coarse cells, each
    halved (up to 4 times, so down to 1/768 of the domain) until the
    second divided differences of the samples certify it root-free or
    monotone, then Brent to a tolerance of [1e-13 * max |a'| |b'|] on
    each bracket [(a', b')].  The tolerance is relative, so the roots of
    [fun x -> f (lambda *. x)] on [[a / lambda, b / lambda]] are those
    of [f] divided by [lambda], up to rounding. *)
