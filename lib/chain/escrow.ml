type state =
  | Held
  | Committed of { at : float }
  | Aborted of { at : float }

type t = {
  contract_id : string;
  owner : string;
  counterparty : string;
  amount : float;
  arbiter : string;
  expiry : float;
  created_at : float;
  state : state;
}

let create ~contract_id ~owner ~counterparty ~amount ~arbiter ~expiry
    ~created_at =
  if amount < 0. then invalid_arg "Escrow.create: negative amount";
  if expiry <= created_at then
    invalid_arg "Escrow.create: expiry must be after creation";
  { contract_id; owner; counterparty; amount; arbiter; expiry; created_at;
    state = Held }

let decide t ~by ~commit ~at =
  match t.state with
  | Committed _ -> Error "already committed"
  | Aborted _ -> Error "already aborted"
  | Held ->
    if not (String.equal by t.arbiter) then Error "not the arbiter"
    else if at > t.expiry then Error "arbitration window expired"
    else if commit then Ok { t with state = Committed { at } }
    else Ok { t with state = Aborted { at } }

let try_timeout t ~at =
  match t.state with
  | Committed _ -> Error "already committed"
  | Aborted _ -> Error "already aborted"
  | Held ->
    if at < t.expiry then Error "not yet expired"
    else Ok { t with state = Aborted { at } }

let is_held t = t.state = Held

let state_to_string = function
  | Held -> "held"
  | Committed { at } -> "committed@" ^ Obs.Json.g at
  | Aborted { at } -> "aborted@" ^ Obs.Json.g at
