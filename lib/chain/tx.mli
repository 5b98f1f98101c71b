(** Transactions understood by the chain simulator. *)

type payload =
  | Transfer of { from_ : string; to_ : string; amount : float }
  | Htlc_lock of {
      contract_id : string;
      sender : string;
      recipient : string;
      amount : float;
      hash : string;  (** SHA-256 commitment (binary). *)
      expiry : float;  (** Absolute expiry time of the time lock. *)
    }
  | Htlc_claim of { contract_id : string; preimage : string }
      (** Recipient claims the locked funds by revealing the preimage. *)
  | Htlc_refund of { contract_id : string }
      (** Explicit refund request (the simulator also auto-refunds at
          expiry, matching the paper's description that funds are
          "returned" when the contract expires). *)
  | Escrow_lock of {
      contract_id : string;
      owner : string;
      counterparty : string;
      amount : float;
      arbiter : string;
      expiry : float;
    }
      (** Witness-arbitrated escrow (AC3TW); auto-aborts at expiry. *)
  | Escrow_decide of { contract_id : string; by : string; commit : bool }
      (** The arbiter's verdict: [commit] pays the counterparty,
          otherwise funds return to the owner. *)

type id = int

type t = { id : id; submitted_at : float; payload : payload }

val payload_to_string : payload -> string
(** A confirmed transaction's receipt text ({!Chain.describe}): the
    text [Format "%g"] would print for each amount and expiry, built by
    concatenation. *)

val reveals_preimage : payload -> string option
(** The preimage carried by a claim transaction, if any — what a
    counterparty learns by watching the mempool. *)
