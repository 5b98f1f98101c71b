(** End-to-end execution of the HTLC atomic swap (Section II-B) on the
    {!Chainsim} two-chain simulator, with decisions delegated to an
    {!Agent.t} policy at each step of the idealised timeline (Eq. 13).

    The final outcome is {e derived from the chains' contract states},
    not assumed — late reveals, failed claims and refunds all surface
    here exactly as they would on a real pair of ledgers.

    The runner is resilient: each chain can carry a {!Chainsim.Faults}
    schedule (drops, stochastic delays, halts, reorgs), agents can
    resubmit unconfirmed actions under an {!Agent.retry} policy, the
    timeline can carry slack ({!Timeline.slacked}) so retries have
    margin to land in, and every run reports per-submission telemetry.
    With the defaults (no faults, no retries, zero slack) the run is
    identical to the paper's idealised protocol. *)

type outcome =
  | Success  (** Both HTLCs claimed; balances moved per Table I. *)
  | Abort_t1  (** Alice never initiated. *)
  | Abort_t2  (** Bob never deployed his HTLC. *)
  | Abort_t3  (** Alice never revealed; both sides refunded. *)
  | Anomalous of string
      (** Atomicity violation (e.g. Alice revealed too late: her claim
          expired but Bob could still claim hers, or vice versa). *)

type bob_deviation =
  | Wrong_hash  (** Bob locks under a different commitment. *)
  | Short_amount of float  (** Bob locks less than 1 Token_b. *)
  | Early_expiry of float
      (** Bob's lock expires the given hours before [t_b], leaving
          Alice no safe claim window. *)

type submission = {
  chain : string;  (** ["chain_a"] or ["chain_b"]. *)
  action : string;  (** e.g. ["alice's lock"], ["bob's claim"]. *)
  attempt : int;  (** 1-based attempt number for this action. *)
  submitted_at : float;
  deadline : float;  (** Latest useful confirmation time (a timelock). *)
  confirmed_at : float option;
      (** Confirmation time of the action's effect as known right after
          this attempt's expected confirmation; [None] if it had not
          landed by then. *)
}

type telemetry = {
  submissions : submission list;  (** Chronological. *)
  retries : int;  (** Resubmissions beyond each action's first attempt. *)
  fault_stats_a : Chainsim.Chain.fault_stats;
  fault_stats_b : Chainsim.Chain.fault_stats;
  margin_consumed_a : float;
      (** Worst observed confirmation latency beyond [tau_a] on
          chain_a, over confirmed submissions — how much of the
          schedule's slack the faults actually ate. *)
  margin_consumed_b : float;
}

type result = {
  outcome : outcome;
  timeline : Timeline.t;
  alice_delta_a : float;  (** Alice's Token_a balance change. *)
  alice_delta_b : float;
  bob_delta_a : float;
  bob_delta_b : float;
  secret_observed_at_t4 : bool;
      (** Whether Bob could read the preimage from Chain_b's mempool at
          [t4 = t3 + eps_b] (Eq. 7). *)
  trace : (float * string) list;  (** Chronological event log. *)
  receipts_a : Chainsim.Chain.receipt list;
  receipts_b : Chainsim.Chain.receipt list;
  telemetry : telemetry;
  escrow_leftover_a : float;
      (** Funds still stuck in escrow/vault accounts on chain_a at the
          settlement horizon; 0 iff every refund was credited. *)
  escrow_leftover_b : float;
}

val run :
  ?q:float ->
  ?policy:Agent.t ->
  ?price:(float -> float) ->
  ?reveal_delay:float ->
  ?bob_deviation:bob_deviation ->
  ?alice_offline_from:float ->
  ?alice_online_again_at:float ->
  ?bob_offline_from:float ->
  ?bob_online_again_at:float ->
  ?seed:int ->
  ?faults_a:Chainsim.Faults.t ->
  ?faults_b:Chainsim.Faults.t ->
  ?retry:Agent.retry ->
  ?delay_t2:float ->
  ?delay_t3:float ->
  Params.t ->
  p_star:float ->
  result
(** Runs one swap.

    - [q]: symmetric collateral (Section IV; default 0 — no Oracle).
    - [policy]: decision rules (default {!Agent.honest}).
    - [price]: Token_b price as a function of absolute time (default
      constant [p0]); decisions at [t2]/[t3] read it.
    - [reveal_delay]: extra waiting before Alice submits her claim at
      [t3] — nonzero values violate Eq. 8 and demonstrate the timing
      attack surface (the swap degrades to an atomic failure).
    - [bob_deviation]: Bob deploys a non-conforming HTLC at [t2];
      Alice's [t3] verification ("Alice can verify the contract
      deployed on Chain_b", Section II-B) must catch it and withhold
      the secret.
    - [alice_offline_from] / [bob_offline_from]: crash-failure
      injection (Zakhary et al. [31], discussed in Section II-C): the
      agent takes no further actions from that absolute time on.  Most
      crash points degrade to atomic failure via the time locks, but
      Bob crashing after Alice reveals and before his [t4] claim loses
      his Token_a to the expiry refund while Alice keeps Token_b — the
      known HTLC atomicity violation, surfaced as [Anomalous].
    - [alice_online_again_at] / [bob_online_again_at]: end of the
      outage, making it transient rather than a permanent crash.
      Decisions missed while offline are not revisited, but a
      recovered Bob rescans the mempool and submits his [t4] claim
      late (the time lock decides whether it still lands), and
      resubmissions resume.
    - [seed]: secret generation and (xored per chain) fault fates.
    - [faults_a] / [faults_b]: per-chain fault schedules (default
      {!Chainsim.Faults.none} — Assumption 1 exactly).
    - [retry]: resubmission policy for unconfirmed actions (default
      {!Agent.no_retry}).  Retries are deadline-aware: an action is
      only resubmitted while the next attempt can still confirm within
      its timelock.
    - [delay_t2] / [delay_t3]: timeline slack ({!Timeline.slacked},
      default 0): margin on every chain_a / chain_b leg that absorbs
      fault-injected latency. *)

val outcome_to_string : outcome -> string
