type t = {
  chain : Chain.t;
  alice : string;
  bob : string;
  q : float;
  vault : string;
  mutable is_deposited : bool;
  mutable released : float;
}

(* Atomic so that concurrent simulations (domain pool) mint unique vault
   account names without racing. *)
let counter = Atomic.make 0

let create chain ~alice ~bob ~q =
  if q < 0. then invalid_arg "Oracle.create: negative collateral";
  let id = 1 + Atomic.fetch_and_add counter 1 in
  {
    chain;
    alice;
    bob;
    q;
    vault = "oracle:vault:" ^ string_of_int id;
    is_deposited = false;
    released = 0.;
  }

let vault_account t = t.vault

let deposit t ~at:_ =
  if t.is_deposited then invalid_arg "Oracle.deposit: already deposited";
  (* Instantaneous charge per the paper's special-permission assumption:
     both debits happen atomically, before any swap action. *)
  Chain.system_transfer t.chain ~from_:t.alice ~to_:t.vault ~amount:t.q;
  Chain.system_transfer t.chain ~from_:t.bob ~to_:t.vault ~amount:t.q;
  t.is_deposited <- true

let release t ~at ~to_ ~amount =
  if amount < 0. then invalid_arg "Oracle.release: negative amount";
  if t.released +. amount > (2. *. t.q) +. 1e-9 then
    invalid_arg "Oracle.release: vault overdrawn";
  t.released <- t.released +. amount;
  Chain.schedule_payout t.chain ~at ~from_:t.vault ~to_ ~amount
