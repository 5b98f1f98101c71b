(** Scalar root finding. *)

val brent :
  ?tol:float -> ?max_iter:int -> (float -> float) -> a:float -> b:float ->
  float
(** Brent's method (inverse quadratic interpolation + secant + bisection)
    for a root of [f] in [[a, b]].
    @raise Invalid_argument if [f a] and [f b] have the same (nonzero)
    sign. *)

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
