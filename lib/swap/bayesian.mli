(** Incomplete information about the success premium — the paper's
    introduction announces studying "the game with uncertainty in
    counterparties' success premium" (Section I), relaxing the
    common-knowledge Assumption 7.

    Types are discrete: a belief assigns probabilities to possible
    [alpha] values of the counterparty.  Behaviour:

    - Bob at [t2] does not know Alice's [alpha_A], hence not her exact
      Eq. 18 cutoff; his continuation value mixes over her type-wise
      cutoffs, and his band solves the mixed indifference.
    - Alice at [t1] does not know Bob's [alpha_B], hence which band he
      will use; her initiation value mixes over his type-wise bands.
    - Realised success rates depend on the {e true} types, so beliefs
      create adverse selection: a low-[alpha] Alice trades on terms
      calibrated to the average type and defaults more often than Bob
      priced in. *)

type belief = private { weights : float array; alphas : float array }

val belief : (float * float) list -> belief
(** [(weight, alpha)] pairs; weights are normalised.
    @raise Invalid_argument on empty lists, nonpositive weights or
    [alpha <= -1]. *)

(* --- Bob uncertain about Alice ------------------------------------------ *)

val b_t2_cont_mixed :
  Params.t -> belief_on_alice:belief -> p_star:float -> p_t2:float -> float
(** Eq. 21 with Alice's cutoff replaced by the belief mixture; staged
    as {!Utility.b_t2_cont}. *)

val p_t2_band_mixed :
  Params.t -> belief_on_alice:belief -> p_star:float -> Intervals.t

val success_rate_given_alice :
  ?quad_nodes:int -> Params.t -> belief_on_alice:belief ->
  true_alpha_alice:float -> p_star:float -> float
(** Realised SR when Bob plays his belief-based band but Alice's reveal
    follows her true type. *)

val ex_ante_success_rate :
  ?quad_nodes:int -> Params.t -> belief_on_alice:belief -> p_star:float ->
  float
(** Belief-weighted average of the type-wise realised rates. *)

(* --- Alice uncertain about Bob ------------------------------------------- *)

val a_t1_cont_mixed :
  ?quad_nodes:int -> Params.t -> belief_on_bob:belief -> p_star:float -> float
(** Alice's initiation value mixing over Bob's type-wise bands (her own
    [alpha] is the one in [Params]). *)

val p_star_band_mixed :
  ?quad_nodes:int -> Params.t -> belief_on_bob:belief ->
  (float * float) option
(** Feasible rates under Alice's uncertainty about Bob. *)
