(** HTLC with collateral (Section IV) — generalised to asymmetric
    deposits.

    Alice deposits [q_alice] and Bob [q_bob] (Token_a) into the Oracle
    contract before the swap.  Rules (Section IV, assumptions 1–3):
    - swap succeeds: each agent's own deposit is returned
      (Bob's at [t3 + tau_a] once his HTLC is confirmed, Alice's at
      [t4 + tau_a] once she has revealed the secret);
    - an agent stops mid-swap: the other agent receives {e both}
      deposits.

    The paper's symmetric model is [q_alice = q_bob = Q]; the Han et
    al.-style premium mechanism is the one-sided case
    [q_alice = w, q_bob = 0] (see {!Premium}).  With both zero every
    formula reduces to the baseline of Section III (tested). *)

type t = private { params : Params.t; q_alice : float; q_bob : float }

val create : Params.t -> q_alice:float -> q_bob:float -> t
(** @raise Invalid_argument on negative deposits. *)

val symmetric : Params.t -> q:float -> t
(** The paper's Section IV setting. *)

val p_t3_low : t -> p_star:float -> float
(** Eq. 34 (with the [tau_e] typo read as [eps_b], so that [q = 0]
    recovers Eq. 18):
    [e^{(r_A - mu) tau_b} / (1 + alpha_A)
      * max (P* e^{-r_A (eps_b + 2 tau_a)} - q_A e^{-r_A (eps_b + tau_a)}, 0)]. *)

val a_t2_cont : t -> p_star:float -> p_t2:float -> float
(** Eq. 35 (Alice's line): continuation value including the returned /
    forfeited deposits. *)

val b_t2_cont : t -> p_star:float -> p_t2:float -> float
(** Eq. 35 (Bob's line). *)

val a_t2_on_bob_stop : t -> p_star:float -> float
(** Alice's [t2] value when Bob withdraws: refund plus both deposits,
    credited at [t3 + tau_a] (the [2Q] term of Eq. 36). *)

val cont_set_t2 : t -> p_star:float -> Intervals.t
(** The set [𝔓_t2] where Bob continues; has 1 or 3 indifference roots
    (Fig. 7), i.e. 1 or 2 intervals. *)

val a_t1_cont : ?quad_nodes:int -> t -> p_star:float -> float
(** Eq. 36. *)

val b_t1_cont : ?quad_nodes:int -> t -> p_star:float -> float
(** Eq. 37 (reading the denominator's [r_A] typo as [r_B]). *)

val a_t1_stop : t -> p_star:float -> float
(** Eq. 38: [P* + q_A]. *)

val b_t1_stop : t -> float
(** Eq. 39: [P_{t1} + q_B]. *)

type rule = Intersection | Union | Alice_only | Bob_only
(** How the two agents' [t1] preferences combine into the initiation
    set.  The paper prints the union (Section IV-4); initiation by two
    simultaneous movers requires both, so [Intersection] is the
    default.  All four are available for comparison. *)

val initiation_set : ?rule:rule -> ?quad_nodes:int -> t -> Intervals.t
(** Feasible exchange rates [𝔓_*]. *)

val success_rate : ?quad_nodes:int -> t -> p_star:float -> float
(** Eq. 40. *)
