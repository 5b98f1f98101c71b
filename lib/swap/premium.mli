(** Premium-HTLC baseline in the spirit of Han, Lin & Yu (AFT 2019)
    [29]: only the swap {e initiator} (Alice) posts a deposit [w]; she
    forfeits it to Bob if she walks away after Bob has locked his
    tokens.  This prices the free "American option" the initiator
    otherwise holds.

    Implemented as the one-sided case of {!Collateral}
    ([q_alice = w, q_bob = 0]), so the two mechanisms are directly
    comparable on the same utility model. *)

type t = private Collateral.t

val create : Params.t -> w:float -> t
(** @raise Invalid_argument if [w < 0.]. *)

val as_collateral : t -> Collateral.t

val success_rate : ?quad_nodes:int -> t -> p_star:float -> float
