(** Witness-based atomic cross-chain commitment, in the style of AC3TW
    (Zakhary et al. [31], discussed in Section II-C): both agents place
    their assets in {e arbitrated escrows} and a trusted witness —
    observing both chains — commits or aborts both sides atomically.

    Differences from the HTLC game:
    - Alice has no [t3] reveal step, so her mid-game exit option is
      gone: the game is the [alice_committed] regime of {!Optionality},
      and the success rate is simply the probability that Bob's [t2]
      price lands in his (re-solved) continuation band.
    - Crash failures after [t2] cannot break atomicity: the witness
      settles both chains, and if the witness itself crashes both
      escrows time out and refund (all-or-nothing in every case).
    - The cost is trust in the witness — exactly the trade-off the
      paper's conclusion highlights. *)

type outcome =
  | Success
  | Abort_t1  (** Alice never engaged. *)
  | Abort_t2  (** Bob declined; the witness aborts Alice's escrow early. *)
  | Failed_timeout  (** Witness never decided; both escrows timed out. *)
  | Anomalous of string  (** Should be unreachable; kept for honesty. *)

type result = {
  outcome : outcome;
  alice_delta_a : float;
  alice_delta_b : float;
  bob_delta_a : float;
  bob_delta_b : float;
  trace : (float * string) list;
}

val bob_band : Params.t -> p_star:float -> Intervals.t
(** Bob's [t2] continuation region knowing Alice cannot defect
    ([k3 = 0] in the Eq. 21 machinery). *)

val success_rate : ?quad_nodes:int -> Params.t -> p_star:float -> float
(** P(success | initiated) — the transition mass of {!bob_band}. *)

val feasible_band : ?quad_nodes:int -> Params.t -> (float * float) option
(** Exchange rates at which Alice engages at [t1]. *)

val run :
  ?policy:Agent.t ->
  ?price:(float -> float) ->
  ?alice_offline_from:float ->
  ?bob_offline_from:float ->
  ?witness_offline_from:float ->
  Params.t -> p_star:float -> result
(** Executes the witness protocol on the two-chain simulator; the
    outcome is derived from final escrow states.  Default [policy] is
    {!Agent.honest}. *)

val outcome_to_string : outcome -> string
