(** One-dimensional numerical quadrature. *)

val gauss_legendre : ?n:int -> (float -> float) -> a:float -> b:float -> float
(** Gauss–Legendre quadrature with [n] nodes (default 64).  Nodes and
    weights are computed by Newton iteration on Legendre polynomials and
    memoised per [n].  Exact for polynomials of degree [<= 2n - 1]. *)

val gauss_legendre_nodes : int -> (float * float) array
(** [gauss_legendre_nodes n] returns the [(node, weight)] pairs on
    [[-1, 1]] (memoised). *)
