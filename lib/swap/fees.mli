(** Transaction-fee extension (Section V: "blockchain transaction fees
    ... may have an impact on agents' actions"; the baseline model
    assumes fees are negligible, Assumption 2).

    Each submitted transaction costs a flat fee, denominated in Token_a
    ([fee_a] per Chain_a transaction, [fee_b] per Chain_b transaction).
    The swap involves four transactions: Alice's lock (t1, Chain_a),
    Bob's lock (t2, Chain_b), Alice's claim (t3, Chain_b), Bob's claim
    (t4, Chain_a).  Sunk fees never influence later decisions; only
    fees still to be paid enter each comparison.

    The notional [n] scales the trade ([n P*] Token_a against [n]
    Token_b) while fees stay flat, exposing the fixed-toll economics:
    fees wipe out small trades and are irrelevant for large ones.

    With zero fees and [n = 1] everything reduces to the baseline
    (tested). *)

type t = private {
  params : Params.t;
  fee_a : float;
  fee_b : float;
  notional : float;
}

val create : ?notional:float -> Params.t -> fee_a:float -> fee_b:float -> t
(** @raise Invalid_argument on negative fees or nonpositive notional. *)

val p_t3_low : t -> p_star:float -> float
(** Alice's [t3] cutoff: continuing costs her the Chain_b claim fee
    now. *)

val b_t2_cont : t -> p_star:float -> p_t2:float -> float
(** Bob's continuation value at [t2], net of his Chain_b lock fee and
    the expected, discounted Chain_a claim fee at [t4]. *)

val p_t2_band : t -> p_star:float -> Intervals.t

val a_t1_net : ?quad_nodes:int -> t -> p_star:float -> float
(** Alice's net gain from initiating (cont minus stop), including her
    Chain_a lock fee; the swap starts only where this is positive. *)

val p_star_band : ?quad_nodes:int -> t -> (float * float) option
(** Feasible exchange-rate band under fees. *)

val success_rate : ?quad_nodes:int -> t -> p_star:float -> float

val break_even_notional :
  ?quad_nodes:int -> ?hi:float -> t -> p_star:float -> float option
(** Smallest trade size at which initiating is (weakly) profitable for
    Alice at the given rate; [None] if even [hi] (default 10^4) is not
    enough. *)
