(** Chebyshev coefficients behind {!Special.erfc}, generated from the
    incomplete-gamma oracle by [test/oracle/erfc_fit.exe]. *)

val coefficients : float array
(** Coefficients [c_j] of [ln(erfc z / t) + z^2] as a Chebyshev series
    in [y = 2t - 1], [t = 2 / (2 + z)], for [z >= 0]; the series is
    summed as [c_0 / 2 + sum_{j >= 1} c_j T_j(y)].  Read-only. *)
