(** Recombining binomial lattice calibrated to a GBM, in the
    Cox–Ross–Rubinstein parameterisation with drift:

    [u = exp (sigma sqrt dt)], [d = 1/u],
    [p_up = (exp (mu dt) - d) / (u - d)].

    The lattice discretises the paper's price process so that the swap
    game can be rebuilt as a {e finite} extensive-form game and solved by
    the generic backward-induction engine ({!Gametree}), cross-validating
    the analytic solution. *)

type t = private {
  p0 : float;
  dt : float;
  steps : int;
  up : float;
  down : float;
  p_up : float;
}

val create : Gbm.t -> p0:float -> horizon:float -> steps:int -> t
(** [create gbm ~p0 ~horizon ~steps] builds a lattice over [[0, horizon]].
    @raise Invalid_argument if parameters are non-positive or if the
    up-probability falls outside (0, 1) (time step too coarse for the
    drift). *)

val price : t -> level:int -> index:int -> float
(** Price at node [(level, index)], [index] up-moves out of [level]
    steps; [0 <= index <= level <= steps]. *)

val level_prices : t -> level:int -> float array
(** All [level + 1] node prices, increasing in index. *)

val node_probability : t -> level:int -> index:int -> float
(** Unconditional probability of reaching the node (binomial). *)
