(** AC3WN — atomic cross-chain commitment with a {e witness network}
    (Zakhary et al. [31]): instead of a trusted witness process
    (AC3TW, {!Ac3}), the commit/abort decision is recorded as a
    transaction on a separate witness {e blockchain}.  Once the
    decision transaction confirms there, {e any} party can trigger the
    settlement of both escrows — no single machine is trusted or
    load-bearing.

    Trade-offs measured here against {!Ac3}:
    - crash tolerance improves: the swap completes as long as {e some}
      party is alive to post the decision and trigger settlement
      (AC3TW dies with its witness);
    - latency worsens by one witness-chain confirmation [tau_w];
    - the strategic game is unchanged (Alice still has no reveal
      option), so the success rate equals AC3TW's. *)

type outcome =
  | Success
  | Abort_t1
  | Abort_t2
  | Failed_timeout  (** Nobody alive to decide; both escrows refund. *)
  | Anomalous of string

type result = {
  outcome : outcome;
  alice_delta_a : float;
  alice_delta_b : float;
  bob_delta_a : float;
  bob_delta_b : float;
  decision_confirmed_at : float option;
      (** When the commit transaction confirmed on the witness chain. *)
  settled_at : float option;  (** When the last escrow settlement confirmed. *)
  trace : (float * string) list;
}

val run :
  ?policy:Agent.t ->
  ?price:(float -> float) ->
  ?tau_witness:float ->
  ?alice_offline_from:float ->
  ?bob_offline_from:float ->
  Params.t -> p_star:float -> result
(** Executes the protocol on three simulated chains (two asset chains
    plus the witness chain, default [tau_witness = tau_a]).  Escrow
    expiries are stretched by [tau_witness] relative to {!Ac3} to leave
    room for the decision to confirm. *)

val happy_path_hours : ?tau_witness:float -> Params.t -> float
(** Time until the last settlement confirms — AC3TW's plus [tau_w]. *)

val outcome_to_string : outcome -> string
