type payload =
  | Transfer of { from_ : string; to_ : string; amount : float }
  | Htlc_lock of {
      contract_id : string;
      sender : string;
      recipient : string;
      amount : float;
      hash : string;
      expiry : float;
    }
  | Htlc_claim of { contract_id : string; preimage : string }
  | Htlc_refund of { contract_id : string }
  | Escrow_lock of {
      contract_id : string;
      owner : string;
      counterparty : string;
      amount : float;
      arbiter : string;
      expiry : float;
    }
  | Escrow_decide of { contract_id : string; by : string; commit : bool }

type id = int
type t = { id : id; submitted_at : float; payload : payload }

let g = Obs.Json.g

(* Concatenation with [g] gives the text [Format "%g"] would, without
   running the format interpreter once per executed transaction. *)
let payload_to_string = function
  | Transfer { from_; to_; amount } ->
    String.concat "" [ "transfer "; g amount; " from "; from_; " to "; to_ ]
  | Htlc_lock { contract_id; sender; recipient; amount; expiry; _ } ->
    String.concat ""
      [ "htlc-lock "; contract_id; ": "; g amount; " from "; sender; " to ";
        recipient; ", expires "; g expiry ]
  | Htlc_claim { contract_id; _ } ->
    "htlc-claim " ^ contract_id ^ " (preimage revealed)"
  | Htlc_refund { contract_id } -> "htlc-refund " ^ contract_id
  | Escrow_lock { contract_id; owner; counterparty; amount; arbiter; expiry } ->
    String.concat ""
      [ "escrow-lock "; contract_id; ": "; g amount; " from "; owner; " to ";
        counterparty; ", arbiter "; arbiter; ", expires "; g expiry ]
  | Escrow_decide { contract_id; by; commit } ->
    String.concat ""
      [ "escrow-decide "; contract_id; ": ";
        (if commit then "commit" else "abort"); " by "; by ]

let reveals_preimage = function
  | Htlc_claim { preimage; _ } -> Some preimage
  | Transfer _ | Htlc_lock _ | Htlc_refund _ | Escrow_lock _
  | Escrow_decide _ ->
    None
