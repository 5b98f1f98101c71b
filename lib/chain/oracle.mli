(** Collateral Oracle of Section IV: a trusted contract on Chain_a that
    charges both agents the same collateral [q] before the swap, watches
    the outcome on both chains, and settles:

    - swap succeeds: each agent gets their own collateral back;
    - an agent stops: the {e other} agent receives both deposits (2q).

    Deposits are taken instantaneously at [deposit] time — the paper
    grants the contract "special permission to charge each of them
    simultaneously" (Section IV, assumption 1). A release is the
    contract's own payout from the vault ({!Chain.schedule_payout}),
    credited one confirmation delay later, matching the [t + tau_a]
    receipt times in the paper.  Being no transaction, it cannot be
    dropped, delayed or reorged by the fault layer, so a vault is
    always emptied by the releases that settle it; a halt window
    defers a release as it does an auto-refund. *)

type t

val create : Chain.t -> alice:string -> bob:string -> q:float -> t
(** @raise Invalid_argument if [q < 0.]. *)

val vault_account : t -> string

val deposit : t -> at:float -> unit
(** Charges [q] from each agent into the vault (instantaneous ledger
    debit, per the special-permission assumption).
    @raise Ledger.Insufficient_funds if either agent cannot pay.
    @raise Invalid_argument if called twice. *)

val release : t -> at:float -> to_:string -> amount:float -> unit
(** Schedules a payout of [amount] from the vault to [to_], credited at
    [at + tau_a] (later only if a halt window covers that time).
    @raise Invalid_argument if the vault would be overdrawn by the total
    amount released so far, or if [at] is before the chain clock. *)
