(** The agents' expected utilities at each decision point
    (Eqs. 14–17, 20–23, 25–28), in closed form where possible.

    Conventions: utilities are assessed at the decision time and
    denominated in Token_a (Assumption 3).  [k3] is Alice's [t3]
    continuation cutoff [P_t3_low] ({!Cutoff.p_t3_low}); [band] is Bob's
    [t2] continuation region ({!Cutoff.p_t2_band}).  Both are passed
    explicitly so the same formulas serve the baseline and the
    collateral/premium variants. *)

val discount : r:float -> horizon:float -> float
(** [exp (-. r *. horizon)]. *)

(* --- t3: Alice decides reveal (cont) vs waive (stop) --- *)

val a_t3_cont : Params.t -> p_t3:float -> float
(** Eq. 14: [(1 + alpha_A) E(P_t3, tau_b) / e^{r_A tau_b}]. *)

val b_t3_cont : Params.t -> p_star:float -> float
(** Eq. 15: [(1 + alpha_B) P* / e^{r_B (eps_b + tau_a)}]. *)

val a_t3_stop : Params.t -> p_star:float -> float
(** Eq. 16: [P* / e^{r_A (eps_b + 2 tau_a)}]. *)

val b_t3_stop : Params.t -> p_t3:float -> float
(** Eq. 17: [E(P_t3, 2 tau_b) / e^{2 r_B tau_b}]. *)

(* --- t2: Bob decides to deploy his HTLC (cont) vs withdraw (stop) --- *)

val a_t2_cont : Params.t -> p_star:float -> k3:float -> p_t2:float -> float
(** Eq. 20, via the closed-form partial lognormal expectation.  Staged:
    [a_t2_cont p ~p_star ~k3] computes the constants once and returns
    the function of [p_t2], which allocates only its result. *)

val b_t2_cont : Params.t -> p_star:float -> k3:float -> p_t2:float -> float
(** Eq. 21, staged as {!a_t2_cont}. *)

val a_t2_stop : Params.t -> p_star:float -> float
(** Eq. 22: [P* / e^{r_A (tau_b + eps_b + 2 tau_a)}]. *)

val b_t2_stop : p_t2:float -> float
(** Eq. 23: [P_t2]. *)

(* --- t1: Alice decides to initiate (cont) vs not (stop) --- *)

val a_t1_cont :
  ?quad_nodes:int -> Params.t -> p_star:float -> k3:float ->
  band:Intervals.t -> float
(** Eq. 25, integrating Alice's [t2] value over Bob's continuation
    region under the [tau_a]-transition from [p0]. *)

val b_t1_cont :
  ?quad_nodes:int -> Params.t -> p_star:float -> k3:float ->
  band:Intervals.t -> float
(** Eq. 26. *)

val a_t1_stop : p_star:float -> float
(** Eq. 27: [P*]. *)

val b_t1_stop : Params.t -> float
(** Eq. 28: [P_t1 = p0]. *)

val integrate_law :
  ?quad_nodes:int -> Numerics.Lognormal.t -> Intervals.t ->
  f:(float -> float) -> float
(** [integrate_law law set ~f] is the integral of [pdf law x *. f x]
    over the set: Gauss–Legendre with [quad_nodes] (default 96) nodes
    per interval in [z = (ln x - mu) / sigma], clipped to [|z| <= 9], so
    the nodes sit where the law has its mass however wide the set is.
    [f] must not include the density.  Every Eq. 25/26/31/36/37/40-style
    integral uses it. *)

val transition_mass :
  Params.t -> tau:float -> p0:float -> Intervals.t -> float
(** Probability that the price, starting at [p0], lands inside the set
    after [tau] hours. *)

val price_mass_inside :
  Params.t -> tau:float -> p0:float -> Intervals.t -> float
(** Partial expectation [E\[P 1_inside\]] of the same transition —
    the building block of the Eq. 26-style "keep the token" terms. *)
