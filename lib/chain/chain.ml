type payout = { amount : float; to_ : string }

type event =
  | Confirmed of Tx.payload
  | Htlc_expired of { contract_id : string; refund : payout option }
  | Escrow_expired of { contract_id : string; refund : payout option }
  | Contract_payout of { from_ : string; to_ : string; amount : float }

type receipt = {
  time : float;
  tx_id : Tx.id option;
  event : event;
  result : (unit, string) result;
}

(* What the event queue holds: work due at [at], FIFO by [seq] within
   equal times. *)
type due_kind =
  | Confirm of Tx.t
  | Expire_htlc of string
  | Expire_escrow of string
  | Pay of { from_ : string; to_ : string; amount : float }
type due = { at : float; seq : int; kind : due_kind }

type fault_stats = {
  dropped : int;
  reorged : int;
  delayed : int;
  halted : int;
  extra_delay : float;
}

type t = {
  name : string;
  token : string;
  tau : float;
  mempool_delay : float;
  faults : Faults.t;
  fault_seed : int;
  ledger : Ledger.t;
  htlcs : (string, Htlc.t) Hashtbl.t;
  escrows : (string, Escrow.t) Hashtbl.t;
  events : due Heap.t;
  mutable submitted : Tx.t list;  (** Reverse-chronological. *)
  mutable receipt_log : receipt list;  (** Reverse-chronological. *)
  mutable next_tx_id : int;
  mutable next_seq : int;
  mutable clock : float;
  mutable fstats : fault_stats;
}

(* Receipt text is built by concatenation: [g] prints a float as "%g"
   does, without the format interpreter. *)
let g = Obs.Json.g

let no_fault_stats =
  { dropped = 0; reorged = 0; delayed = 0; halted = 0; extra_delay = 0. }

(* Process-wide fault counters: the per-chain [fstats] record remains the
   per-instance view, these aggregate across every chain ever simulated. *)
let m_dropped = Obs.Metrics.counter "chain.faults.dropped"
let m_reorged = Obs.Metrics.counter "chain.faults.reorged"
let m_delayed = Obs.Metrics.counter "chain.faults.delayed"
let m_halted = Obs.Metrics.counter "chain.faults.halted"
let m_txs = Obs.Metrics.counter "chain.txs_submitted"
let m_events = Obs.Metrics.counter "chain.events_executed"

let create ?(faults = Faults.none) ?(fault_seed = 0) ~name ~token ~tau
    ~mempool_delay () =
  if tau <= 0. then invalid_arg "Chain.create: requires tau > 0";
  if mempool_delay < 0. || mempool_delay >= tau then
    invalid_arg "Chain.create: requires 0 <= mempool_delay < tau (Eq. 3)";
  {
    name;
    token;
    tau;
    mempool_delay;
    faults;
    fault_seed;
    ledger = Ledger.create ();
    htlcs = Hashtbl.create 8;
    escrows = Hashtbl.create 8;
    events =
      Heap.create ~cmp:(fun a b ->
          let c = compare a.at b.at in
          if c <> 0 then c else compare a.seq b.seq);
    submitted = [];
    receipt_log = [];
    next_tx_id = 0;
    next_seq = 0;
    clock = 0.;
    fstats = no_fault_stats;
  }

let name t = t.name
let token t = t.token
let tau t = t.tau
let mempool_delay t = t.mempool_delay

let mint t ~account ~amount = Ledger.mint t.ledger account amount
let balance t ~account = Ledger.balance t.ledger account
let escrow_account ~contract_id = "escrow:" ^ contract_id

let system_transfer t ~from_ ~to_ ~amount =
  Ledger.transfer t.ledger ~from_ ~to_ ~amount

(* Every scheduled event funnels through here, so halt windows defer
   confirmations and auto-refunds alike. *)
let push_event t ~at kind =
  let deferred = Faults.settle_time t.faults at in
  if deferred > at then begin
    t.fstats <- { t.fstats with halted = t.fstats.halted + 1 };
    Obs.Metrics.incr m_halted
  end;
  Heap.push t.events { at = deferred; seq = t.next_seq; kind };
  t.next_seq <- t.next_seq + 1

let check_not_past t what ~at =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Chain.%s(%s): time %g before chain clock %g" what t.name
         at t.clock)

let submit t ~at payload =
  check_not_past t "submit" ~at;
  let id = t.next_tx_id in
  t.next_tx_id <- id + 1;
  let tx = { Tx.id; submitted_at = at; payload } in
  (* Dropped transactions stay in [submitted] — mempool-visible but
     never confirmed (censorship). *)
  t.submitted <- tx :: t.submitted;
  Obs.Metrics.incr m_txs;
  (match Faults.tx_fate t.faults ~seed:t.fault_seed ~tx_id:id ~tau:t.tau with
  | Faults.Dropped ->
    t.fstats <- { t.fstats with dropped = t.fstats.dropped + 1 };
    Obs.Metrics.incr m_dropped
  | Faults.Confirm_after { extra; reorged } ->
    if reorged then begin
      t.fstats <- { t.fstats with reorged = t.fstats.reorged + 1 };
      Obs.Metrics.incr m_reorged
    end;
    if extra > 0. then begin
      t.fstats <-
        { t.fstats with
          delayed = t.fstats.delayed + 1;
          extra_delay = t.fstats.extra_delay +. extra };
      Obs.Metrics.incr m_delayed
    end;
    push_event t ~at:(at +. t.tau +. extra) (Confirm tx));
  id

(* Queued like an auto-refund, not submitted: no fate draw, but
   [push_event] still applies halt windows. *)
let schedule_payout t ~at ~from_ ~to_ ~amount =
  check_not_past t "schedule_payout" ~at;
  if amount < 0. then invalid_arg "Chain.schedule_payout: negative amount";
  push_event t ~at:(at +. t.tau) (Pay { from_; to_; amount })

let record t ~time ~tx_id ~event ~result =
  let r = { time; tx_id; event; result } in
  t.receipt_log <- r :: t.receipt_log;
  r

let transfer_result t ~from_ ~to_ ~amount =
  try
    Ledger.transfer t.ledger ~from_ ~to_ ~amount;
    Ok ()
  with Ledger.Insufficient_funds { have; need; _ } ->
    Error ("insufficient funds: have " ^ g have ^ ", need " ^ g need)

(* Execute a confirmed transaction at its confirmation time [now]. *)
let execute_tx t now (tx : Tx.t) =
  let result =
    match tx.payload with
    | Tx.Transfer { from_; to_; amount } ->
      transfer_result t ~from_ ~to_ ~amount
    | Tx.Htlc_lock { contract_id; sender; recipient; amount; hash; expiry } -> (
      if Hashtbl.mem t.htlcs contract_id then
        Error ("contract " ^ contract_id ^ " already exists")
      else if expiry <= now then
        Error "cannot deploy an HTLC that is already expired"
      else
        try
          Ledger.transfer t.ledger ~from_:sender
            ~to_:(escrow_account ~contract_id) ~amount;
          let contract =
            Htlc.create ~contract_id ~sender ~recipient ~amount ~hash ~expiry
              ~created_at:now
          in
          Hashtbl.replace t.htlcs contract_id contract;
          (* Funds return automatically if no claim lands by the expiry;
             the sender is credited one confirmation delay later. *)
          push_event t ~at:(expiry +. t.tau) (Expire_htlc contract_id);
          Ok ()
        with Ledger.Insufficient_funds { have; need; _ } ->
          Error
            ("insufficient funds to lock: have " ^ g have ^ ", need " ^ g need))
    | Tx.Htlc_claim { contract_id; preimage } -> (
      match Hashtbl.find_opt t.htlcs contract_id with
      | None -> Error ("unknown contract " ^ contract_id)
      | Some contract -> (
        match Htlc.try_claim contract ~preimage ~at:now with
        | Error e -> Error e
        | Ok claimed ->
          Hashtbl.replace t.htlcs contract_id claimed;
          Ledger.transfer t.ledger
            ~from_:(escrow_account ~contract_id)
            ~to_:contract.Htlc.recipient ~amount:contract.Htlc.amount;
          Ok ()))
    | Tx.Htlc_refund { contract_id } -> (
      match Hashtbl.find_opt t.htlcs contract_id with
      | None -> Error ("unknown contract " ^ contract_id)
      | Some contract -> (
        match Htlc.try_refund contract ~at:now with
        | Error e -> Error e
        | Ok refunded ->
          Hashtbl.replace t.htlcs contract_id refunded;
          Ledger.transfer t.ledger
            ~from_:(escrow_account ~contract_id)
            ~to_:contract.Htlc.sender ~amount:contract.Htlc.amount;
          Ok ()))
    | Tx.Escrow_lock { contract_id; owner; counterparty; amount; arbiter; expiry }
      -> (
      if Hashtbl.mem t.escrows contract_id then
        Error ("escrow " ^ contract_id ^ " already exists")
      else if expiry <= now then
        Error "cannot deploy an escrow that is already expired"
      else
        try
          Ledger.transfer t.ledger ~from_:owner
            ~to_:(escrow_account ~contract_id) ~amount;
          let contract =
            Escrow.create ~contract_id ~owner ~counterparty ~amount ~arbiter
              ~expiry ~created_at:now
          in
          Hashtbl.replace t.escrows contract_id contract;
          (* Undecided escrows abort at expiry; the owner is credited
             one confirmation delay later. *)
          push_event t ~at:(expiry +. t.tau) (Expire_escrow contract_id);
          Ok ()
        with Ledger.Insufficient_funds { have; need; _ } ->
          Error
            ("insufficient funds to lock: have " ^ g have ^ ", need " ^ g need))
    | Tx.Escrow_decide { contract_id; by; commit } -> (
      match Hashtbl.find_opt t.escrows contract_id with
      | None -> Error ("unknown escrow " ^ contract_id)
      | Some contract -> (
        match Escrow.decide contract ~by ~commit ~at:now with
        | Error e -> Error e
        | Ok decided ->
          Hashtbl.replace t.escrows contract_id decided;
          let to_ =
            if commit then contract.Escrow.counterparty
            else contract.Escrow.owner
          in
          Ledger.transfer t.ledger
            ~from_:(escrow_account ~contract_id)
            ~to_ ~amount:contract.Escrow.amount;
          Ok ()))
  in
  record t ~time:now ~tx_id:(Some tx.Tx.id) ~event:(Confirmed tx.payload)
    ~result

let execute_escrow_timeout t now ~contract_id =
  let event refund = Escrow_expired { contract_id; refund } in
  match Hashtbl.find_opt t.escrows contract_id with
  | None ->
    record t ~time:now ~tx_id:None ~event:(event None)
      ~result:(Error "unknown escrow")
  | Some contract ->
    if not (Escrow.is_held contract) then
      record t ~time:now ~tx_id:None ~event:(event None) ~result:(Ok ())
    else begin
      match Escrow.try_timeout contract ~at:contract.Escrow.expiry with
      | Error e ->
        record t ~time:now ~tx_id:None ~event:(event None) ~result:(Error e)
      | Ok aborted ->
        Hashtbl.replace t.escrows contract_id aborted;
        let amount = contract.Escrow.amount and to_ = contract.Escrow.owner in
        Ledger.transfer t.ledger ~from_:(escrow_account ~contract_id) ~to_
          ~amount;
        record t ~time:now ~tx_id:None
          ~event:(event (Some { amount; to_ }))
          ~result:(Ok ())
    end

let execute_auto_refund t now ~contract_id =
  let event refund = Htlc_expired { contract_id; refund } in
  match Hashtbl.find_opt t.htlcs contract_id with
  | None ->
    record t ~time:now ~tx_id:None ~event:(event None)
      ~result:(Error "unknown contract")
  | Some contract ->
    if not (Htlc.is_locked contract) then
      (* Already claimed or explicitly refunded: nothing to do. *)
      record t ~time:now ~tx_id:None ~event:(event None) ~result:(Ok ())
    else begin
      (* The lock expired at [contract.expiry]; funds are credited now
         (= expiry + tau). *)
      match Htlc.try_refund contract ~at:contract.Htlc.expiry with
      | Error e ->
        record t ~time:now ~tx_id:None ~event:(event None) ~result:(Error e)
      | Ok refunded ->
        Hashtbl.replace t.htlcs contract_id refunded;
        let amount = contract.Htlc.amount and to_ = contract.Htlc.sender in
        Ledger.transfer t.ledger ~from_:(escrow_account ~contract_id) ~to_
          ~amount;
        record t ~time:now ~tx_id:None
          ~event:(event (Some { amount; to_ }))
          ~result:(Ok ())
    end

let execute_payout t now ~from_ ~to_ ~amount =
  record t ~time:now ~tx_id:None
    ~event:(Contract_payout { from_; to_; amount })
    ~result:(transfer_result t ~from_ ~to_ ~amount)

let advance t ~until =
  if until < t.clock then
    invalid_arg
      (Printf.sprintf "Chain.advance(%s): until %g before clock %g" t.name
         until t.clock);
  let produced = ref [] in
  let rec loop () =
    match Heap.peek t.events with
    | Some ev when ev.at <= until ->
      ignore (Heap.pop_exn t.events);
      t.clock <- ev.at;
      let receipt =
        match ev.kind with
        | Confirm tx -> execute_tx t ev.at tx
        | Expire_htlc contract_id -> execute_auto_refund t ev.at ~contract_id
        | Expire_escrow contract_id ->
          execute_escrow_timeout t ev.at ~contract_id
        | Pay { from_; to_; amount } ->
          execute_payout t ev.at ~from_ ~to_ ~amount
      in
      produced := receipt :: !produced;
      Obs.Metrics.incr m_events;
      loop ()
    | _ -> ()
  in
  loop ();
  t.clock <- until;
  List.rev !produced

(* Receipt text is rendered here, at the edge: nothing on the
   simulation path reads it, so executing an event records only what
   happened. *)
let describe r =
  let expiry kind contract_id refund =
    match (refund, r.result) with
    | Some { amount; to_ }, _ ->
      String.concat ""
        [ kind; contract_id; ": "; g amount; " returned to "; to_ ]
    | None, Ok () -> String.concat "" [ kind; contract_id; " (noop)" ]
    | None, Error _ -> kind ^ contract_id
  in
  match r.event with
  | Confirmed payload -> Tx.payload_to_string payload
  | Htlc_expired { contract_id; refund } ->
    expiry "auto-refund " contract_id refund
  | Escrow_expired { contract_id; refund } ->
    expiry "escrow-timeout " contract_id refund
  | Contract_payout { from_; to_; amount } ->
    String.concat "" [ "payout "; g amount; " from "; from_; " to "; to_ ]

let htlc t ~contract_id = Hashtbl.find_opt t.htlcs contract_id
let escrow t ~contract_id = Hashtbl.find_opt t.escrows contract_id
let receipts t = List.rev t.receipt_log

let tx_receipt t ~tx_id =
  List.find_opt
    (fun r -> match r.tx_id with Some id -> id = tx_id | None -> false)
    t.receipt_log

let fault_stats t = t.fstats

let observable_txs t ~at =
  List.rev
    (List.filter
       (fun (tx : Tx.t) -> tx.Tx.submitted_at +. t.mempool_delay <= at)
       t.submitted)

let observed_preimage t ~at ~hash =
  let visible = observable_txs t ~at in
  List.find_map
    (fun (tx : Tx.t) ->
      match Tx.reveals_preimage tx.Tx.payload with
      | Some preimage when Secret.verify ~hash ~preimage -> Some preimage
      | _ -> None)
    visible

let total_supply t = Ledger.total_supply t.ledger

let accounts t =
  List.map (fun a -> (a, Ledger.balance t.ledger a)) (Ledger.accounts t.ledger)
