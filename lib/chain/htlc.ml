type state =
  | Locked
  | Claimed of { at : float; preimage : string }
  | Refunded of { at : float }

type t = {
  contract_id : string;
  sender : string;
  recipient : string;
  amount : float;
  hash : string;
  expiry : float;
  created_at : float;
  state : state;
}

let create ~contract_id ~sender ~recipient ~amount ~hash ~expiry ~created_at =
  if amount < 0. then invalid_arg "Htlc.create: negative amount";
  if expiry <= created_at then
    invalid_arg "Htlc.create: expiry must be after creation";
  { contract_id; sender; recipient; amount; hash; expiry; created_at;
    state = Locked }

let try_claim t ~preimage ~at =
  match t.state with
  | Claimed _ -> Error "already claimed"
  | Refunded _ -> Error "already refunded"
  | Locked ->
    if at > t.expiry then Error "time lock expired"
    else if not (Secret.verify ~hash:t.hash ~preimage) then
      Error "preimage does not match hashlock"
    else Ok { t with state = Claimed { at; preimage } }

let try_refund t ~at =
  match t.state with
  | Claimed _ -> Error "already claimed"
  | Refunded _ -> Error "already refunded"
  | Locked ->
    if at < t.expiry then Error "time lock not yet expired"
    else Ok { t with state = Refunded { at } }

let is_locked t = t.state = Locked

let state_to_string = function
  | Locked -> "locked"
  | Claimed { at; _ } -> "claimed@" ^ Obs.Json.g at
  | Refunded { at } -> "refunded@" ^ Obs.Json.g at
