(** Deterministic single-token blockchain simulator.

    Matches the paper's chain abstraction (Assumptions 1–2):
    - a transaction submitted at time [s] is confirmed (executed) at
      [s + tau], where [tau] is the chain's constant confirmation time;
    - a submitted transaction becomes visible in the mempool at
      [s + mempool_delay] (the paper's [eps]), before confirmation;
    - transaction fees are zero;
    - an HTLC whose time lock expires at [e] with no successful claim
      returns its funds to the sender, credited at [e + tau]
      (Eqs. 10–11: [t7 = t_b + tau_b], [t8 = t_a + tau_a]).

    A {!Faults} schedule relaxes the first point deterministically
    (seeded stochastic delays, drops, halts, reorgs); with the default
    {!Faults.none} the chain honours Assumption 1 exactly. *)

type t

type payout = { amount : float; to_ : string }

(** What a receipt records: the facts its text is rendered from by
    {!describe}. *)
type event =
  | Confirmed of Tx.payload
      (** A transaction reached its confirmation time and was executed
          or refused (see [result]). *)
  | Htlc_expired of { contract_id : string; refund : payout option }
      (** An HTLC's time lock ran out.  [refund] is what returned to
          the sender; [None] when nothing moved: a no-op on a contract
          already claimed or refunded ([result = Ok ()]), or a failure. *)
  | Escrow_expired of { contract_id : string; refund : payout option }
      (** An undecided escrow timed out; [refund] as for [Htlc_expired]. *)
  | Contract_payout of { from_ : string; to_ : string; amount : float }
      (** A payout a contract scheduled with {!schedule_payout}. *)

type receipt = {
  time : float;  (** When the effect was applied (confirmation time). *)
  tx_id : Tx.id option;  (** [None] for events no transaction caused. *)
  event : event;
  result : (unit, string) result;
}

val describe : receipt -> string
(** The receipt's one-line text, e.g. ["htlc-lock c1: 4 from alice to
    bob, expires 10"], ["auto-refund c2: 4 returned to alice"],
    or ["auto-refund c1 (noop)"]; amounts print as [Format "%g"]
    would.  Built on each call: executing an event records only the
    {!event}. *)

type fault_stats = {
  dropped : int;  (** Transactions censored (never confirm). *)
  reorged : int;  (** Transactions re-mined one [tau] later. *)
  delayed : int;  (** Transactions with nonzero extra latency. *)
  halted : int;  (** Events deferred past a halt window. *)
  extra_delay : float;  (** Total extra confirmation latency injected. *)
}

val create :
  ?faults:Faults.t ->
  ?fault_seed:int ->
  name:string ->
  token:string ->
  tau:float ->
  mempool_delay:float ->
  unit ->
  t
(** @raise Invalid_argument unless [0 <= mempool_delay < tau] (Eq. 3)
    and [tau > 0].  Transactions carry no fee (the paper's Assumption
    2).  [faults] (default
    {!Faults.none}) perturbs confirmations per its schedule,
    deterministically in [fault_seed] (default 0). *)

val name : t -> string
val token : t -> string
val tau : t -> float
val mempool_delay : t -> float

val mint : t -> account:string -> amount:float -> unit
(** Bootstrap balances (genesis allocation). *)

val balance : t -> account:string -> float

val system_transfer : t -> from_:string -> to_:string -> amount:float -> unit
(** Immediate ledger transfer bypassing confirmation delay.  Models the
    collateral contract's "special permission to charge each agent
    simultaneously" (Section IV, assumption 1) — not reachable through
    ordinary transactions.
    @raise Ledger.Insufficient_funds if [from_] lacks the amount. *)

val submit : t -> at:float -> Tx.payload -> Tx.id
(** Queues a transaction at time [at]; it executes at [at + tau] (plus
    any fault-injected extra latency; a dropped transaction never
    executes but stays mempool-visible).
    @raise Invalid_argument if [at] is before the chain clock. *)

val schedule_payout :
  t -> at:float -> from_:string -> to_:string -> amount:float -> unit
(** A contract's own transfer out of an account it controls (the
    collateral {!Oracle}'s vault), decided at [at] and credited at
    [at + tau] like an HTLC auto-refund: it is no transaction, so the
    fault layer can neither drop, delay nor reorg it; a halt window
    defers it.  Its receipt is a
    [Contract_payout], failed if [from_] cannot cover [amount].
    @raise Invalid_argument if [at] is before the chain clock or
    [amount < 0.]. *)

val advance : t -> until:float -> receipt list
(** Processes every confirmation and expiry event with time [<= until],
    in chronological order (FIFO within equal times), advances the
    clock, and returns the receipts produced by this call in order.
    @raise Invalid_argument if [until] is before the clock. *)

val htlc : t -> contract_id:string -> Htlc.t option
(** Contract state as of the current clock. *)

val escrow : t -> contract_id:string -> Escrow.t option
(** Arbitrated-escrow state as of the current clock. *)

val receipts : t -> receipt list
(** All receipts so far, chronological. *)

val tx_receipt : t -> tx_id:Tx.id -> receipt option
(** The receipt of a specific transaction, if it has confirmed ([None]
    while pending — or forever, if the fault layer dropped it). *)

val fault_stats : t -> fault_stats
(** Running counters of fault-layer interference on this chain; all
    zero under {!Faults.none}. *)

val observable_txs : t -> at:float -> Tx.t list
(** Transactions visible at time [at]: submitted no later than
    [at - mempool_delay] (mempool visibility; confirmed transactions
    remain visible).  Chronological by submission. *)

val observed_preimage : t -> at:float -> hash:string -> string option
(** Watches the mempool: the preimage of [hash] if some visible claim
    transaction reveals it — how Bob learns the secret at
    [t4 = t3 + eps_b] (Eq. 7). *)

val escrow_account : contract_id:string -> string
(** The internal account holding an HTLC's locked funds. *)

val total_supply : t -> float
(** Conservation check: constant across all operations. *)

val accounts : t -> (string * float) list
(** Every account with its balance, in unspecified order. *)
