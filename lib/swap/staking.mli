(** Coin-staking extension (Section V: "coin stacking (which is similar
    to earning dividends or interest on a locked-in asset) may have an
    impact on agents' actions").

    Tokens held in a wallet earn a continuous staking yield
    ([yield_a] per hour on Token_a, [yield_b] on Token_b); tokens locked
    inside an HTLC earn nothing.  The forgone yield during a lock is an
    opportunity cost, charged linearly (first order in [yield * time],
    exact for the hour-scale horizons of the model) against the
    decision-relevant branches:

    - Alice's Token_a is locked from [t1]; at [t3] the remaining cost is
      [yield_a * P* * (t8 - t3)] on stop (funds idle until the refund)
      and [yield_a * P* * (t6 - t3)] on cont (they leave her at [t6]);
    - Bob's Token_b is locked from [t2] until [t5] (claimed) or [t7]
      (refunded), costing [yield_b * value * duration].

    With both yields zero every quantity reduces to the baseline
    exactly (tested). *)

type t = private { params : Params.t; yield_a : float; yield_b : float }

val create : Params.t -> yield_a:float -> yield_b:float -> t
(** @raise Invalid_argument on negative yields. *)

val p_t3_low : t -> p_star:float -> float
(** Alice's [t3] cutoff with staking costs; closed form (the cost terms
    are constants and linear-in-price terms). *)

val b_t2_cont : t -> p_star:float -> p_t2:float -> float
(** Bob's continuation value at [t2] net of his expected forgone
    Token_b yield. *)

val p_t2_band : t -> p_star:float -> Intervals.t

val success_rate : ?quad_nodes:int -> t -> p_star:float -> float
