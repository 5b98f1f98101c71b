(** Waiting-time ablation — Section III-C argues (informally) that both
    agents want the shortest possible schedule: waiting adds the
    counterparty's optionality and discounting losses, so the
    zero-waiting timeline of Eq. 13 is the equilibrium choice.  This
    module makes that argument quantitative.

    [delay_t2] is slack Bob inserts before deploying at [t2] (his lock
    lands at [t1 + tau_a + delay_t2]); [delay_t3] is slack before
    Alice's reveal decision.  Lock expiries stretch accordingly, so the
    swap remains executable; what changes is that prices diffuse longer
    between decision points and every receipt is pushed back.  With
    both delays zero every formula reduces to the baseline (tested). *)

type t = private { params : Params.t; delay_t2 : float; delay_t3 : float }

val create : Params.t -> delay_t2:float -> delay_t3:float -> t
(** @raise Invalid_argument on negative delays. *)

val p_t3_low : t -> p_star:float -> float
(** Alice's reveal cutoff — unchanged by the slack (Eq. 18 is local to
    the decision), exposed for symmetry. *)

val b_t2_cont : t -> p_star:float -> p_t2:float -> float
(** Bob's deployment value with the longer diffusion leg to Alice's
    decision and the stretched refund schedule. *)

val p_t2_band : t -> p_star:float -> Intervals.t

val a_t1_cont : ?quad_nodes:int -> t -> p_star:float -> float
val b_t1_cont : ?quad_nodes:int -> t -> p_star:float -> float

val success_rate : ?quad_nodes:int -> t -> p_star:float -> float

val schedule_cost :
  ?quad_nodes:int -> Params.t -> p_star:float -> delay_t2:float ->
  delay_t3:float -> float * float
(** [(alice_loss, bob_loss)]: each agent's [t1] utility under the
    slacked schedule subtracted from the zero-waiting value — the
    price of waiting that Section III-C reasons about. *)
