open Chainsim

type outcome =
  | Success
  | Abort_t1
  | Abort_t2
  | Abort_t3
  | Anomalous of string

type bob_deviation =
  | Wrong_hash
  | Short_amount of float
  | Early_expiry of float

type submission = {
  chain : string;
  action : string;
  attempt : int;
  submitted_at : float;
  deadline : float;
  confirmed_at : float option;
}

type telemetry = {
  submissions : submission list;
  retries : int;
  fault_stats_a : Chain.fault_stats;
  fault_stats_b : Chain.fault_stats;
  margin_consumed_a : float;
  margin_consumed_b : float;
}

type result = {
  outcome : outcome;
  timeline : Timeline.t;
  alice_delta_a : float;
  alice_delta_b : float;
  bob_delta_a : float;
  bob_delta_b : float;
  secret_observed_at_t4 : bool;
  trace : (float * string) list;
  receipts_a : Chain.receipt list;
  receipts_b : Chain.receipt list;
  telemetry : telemetry;
  escrow_leftover_a : float;
  escrow_leftover_b : float;
}

let outcome_to_string = function
  | Success -> "success"
  | Abort_t1 -> "abort@t1"
  | Abort_t2 -> "abort@t2"
  | Abort_t3 -> "abort@t3"
  | Anomalous s -> "anomalous: " ^ s

let alice = "alice"
let bob = "bob"
let contract_a = "htlc:a"
let contract_b = "htlc:b"

(* Log lines are built by concatenation: [g] prints a float as "%g"
   does, without the format interpreter. *)
let g = Obs.Json.g

let m_runs = Obs.Metrics.counter "protocol.runs"
let m_retries = Obs.Metrics.counter "protocol.retries"
let m_out_success = Obs.Metrics.counter "protocol.outcome.success"
let m_out_abort_t1 = Obs.Metrics.counter "protocol.outcome.abort_t1"
let m_out_abort_t2 = Obs.Metrics.counter "protocol.outcome.abort_t2"
let m_out_abort_t3 = Obs.Metrics.counter "protocol.outcome.abort_t3"
let m_out_anomalous = Obs.Metrics.counter "protocol.outcome.anomalous"

let count_outcome = function
  | Success -> Obs.Metrics.incr m_out_success
  | Abort_t1 -> Obs.Metrics.incr m_out_abort_t1
  | Abort_t2 -> Obs.Metrics.incr m_out_abort_t2
  | Abort_t3 -> Obs.Metrics.incr m_out_abort_t3
  | Anomalous _ -> Obs.Metrics.incr m_out_anomalous

let escrow_a = Chain.escrow_account ~contract_id:contract_a
let escrow_b = Chain.escrow_account ~contract_id:contract_b

let run ?(q = 0.) ?(policy = Agent.honest) ?price ?(reveal_delay = 0.)
    ?bob_deviation ?alice_offline_from ?alice_online_again_at
    ?bob_offline_from ?bob_online_again_at ?(seed = 0xfeed)
    ?(faults_a = Faults.none) ?(faults_b = Faults.none)
    ?(retry = Agent.no_retry) ?(delay_t2 = 0.) ?(delay_t3 = 0.) (p : Params.t)
    ~p_star =
  Obs.Metrics.incr m_runs;
  Obs.Trace.with_span "protocol.run" @@ fun _run_span ->
  let price = Option.value ~default:(fun _t -> p.Params.p0) price in
  let tl = Timeline.slacked ~delay_t2 ~delay_t3 p in
  (* The run's log, newest first; [finish] reverses it into [trace]. *)
  let log_rev = ref [] in
  let log t msg = log_rev := (t, msg) :: !log_rev in
  (* Chain_a's mempool delay never enters the model; zero keeps Eq. 3.
     Fault seeds derive from the run seed but differ per chain, so the
     two schedules are decorrelated. *)
  let chain_a =
    Chain.create ~faults:faults_a ~fault_seed:(seed lxor 0xa11ce)
      ~name:"chain_a" ~token:"TokenA" ~tau:p.Params.tau_a ~mempool_delay:0. ()
  in
  let chain_b =
    Chain.create ~faults:faults_b ~fault_seed:(seed lxor 0xb0bb)
      ~name:"chain_b" ~token:"TokenB" ~tau:p.Params.tau_b
      ~mempool_delay:p.Params.eps_b ()
  in
  Chain.mint chain_a ~account:alice ~amount:(p_star +. q);
  Chain.mint chain_a ~account:bob ~amount:q;
  Chain.mint chain_b ~account:bob ~amount:1.;
  (* Baselines are taken before any collateral is charged, so that a
     successful swap's deltas equal Table I exactly (the returned
     deposits cancel). *)
  let base_a_alice = Chain.balance chain_a ~account:alice in
  let base_a_bob = Chain.balance chain_a ~account:bob in
  let base_b_alice = Chain.balance chain_b ~account:alice in
  let base_b_bob = Chain.balance chain_b ~account:bob in
  let oracle =
    if q > 0. then begin
      let o = Oracle.create chain_a ~alice ~bob ~q in
      Oracle.deposit o ~at:tl.Timeline.t0;
      log tl.Timeline.t0 ("oracle charged " ^ g q ^ " from each agent");
      Some o
    end
    else None
  in
  let oracle_release ~at ~to_ ~amount reason =
    match oracle with
    | None -> ()
    | Some o when amount > 0. ->
      Oracle.release o ~at ~to_ ~amount;
      log at
        (String.concat ""
           [ "oracle releases "; g amount; " to "; to_; " ("; reason; ")" ])
    | Some _ -> ()
  in
  let online offline_from online_again_at at =
    match offline_from with
    | None -> true
    | Some t ->
      at < t
      || (match online_again_at with Some r -> at >= r | None -> false)
  in
  let alice_online = online alice_offline_from alice_online_again_at in
  let bob_online = online bob_offline_from bob_online_again_at in
  let secret = Secret.generate (Numerics.Rng.create ~seed ()) in
  (* Fault schedules can defer auto-refunds (halts) or stretch
     confirmations (delay caps, reorgs); widen the settlement horizon
     so every deferred refund still executes before we read balances. *)
  let horizon =
    tl.Timeline.t8 +. p.Params.tau_a +. p.Params.tau_b +. 1.
    +. Faults.horizon_margin faults_a ~tau:p.Params.tau_a
    +. Faults.horizon_margin faults_b ~tau:p.Params.tau_b
  in
  (* Each entry pairs the public record with the chain handle and tx id
     so [finish] can backfill [confirmed_at] from the transaction's
     receipt once the horizon has been reached: a delayed original has
     not confirmed yet when the attempt is recorded. *)
  let submissions = ref [] in
  let retries = ref 0 in
  (* Submit [payload] and watch for the action's effect on contract
     state — not the transaction receipt, because a delayed original
     and a successful resubmission are indistinguishable on-chain (and
     a duplicate of an already-applied HTLC action fails harmlessly).
     While the retry policy allows, the agent is online, and the
     remaining margin still covers one confirmation delay, unconfirmed
     actions are resubmitted with exponential backoff. *)
  let submit_watched chain ~is_online ~action ~at ~deadline ~confirmed payload
      =
    let tau = Chain.tau chain in
    let rec attempt n at =
      let tx_id = Chain.submit chain ~at payload in
      ignore (Chain.advance chain ~until:(at +. tau));
      let confirmed_at = confirmed () in
      submissions :=
        ( chain,
          tx_id,
          {
            chain = Chain.name chain;
            action;
            attempt = n;
            submitted_at = at;
            deadline;
            confirmed_at;
          } )
        :: !submissions;
      match confirmed_at with
      | Some _ -> true
      | None ->
        if n >= retry.Agent.max_attempts then false
        else begin
          let wait =
            retry.Agent.backoff
            *. (retry.Agent.backoff_factor ** float_of_int (n - 1))
          in
          let next = at +. tau +. wait in
          if next +. tau > deadline +. 1e-9 then begin
            log (at +. tau)
              (action
             ^ " unconfirmed; remaining margin cannot cover another \
                confirmation, giving up");
            false
          end
          else if not (is_online next) then begin
            log (at +. tau)
              (action ^ " unconfirmed; agent offline, no resubmission");
            false
          end
          else begin
            incr retries;
            log next
              (String.concat ""
                 [ action; " unconfirmed; resubmitting (attempt ";
                   string_of_int (n + 1); ")" ]);
            attempt (n + 1) next
          end
        end
    in
    attempt 1 at
  in
  let lock_confirmed chain cid () =
    Option.map
      (fun (h : Htlc.t) -> h.Htlc.created_at)
      (Chain.htlc chain ~contract_id:cid)
  in
  let claim_confirmed chain cid () =
    match Chain.htlc chain ~contract_id:cid with
    | Some { Htlc.state = Htlc.Claimed { at; _ }; _ } -> Some at
    | _ -> None
  in
  let finish outcome ~secret_observed_at_t4 =
    count_outcome outcome;
    Obs.Metrics.add m_retries !retries;
    ignore (Chain.advance chain_a ~until:horizon);
    ignore (Chain.advance chain_b ~until:horizon);
    let subs =
      (* Backfill per-attempt confirmation times from transaction
         receipts: [Ok] means this attempt's transaction applied the
         action (at the receipt time); an [Error] receipt is a
         harmless duplicate of an attempt that had already landed, and
         a missing receipt is a dropped transaction — neither counts
         as this attempt confirming. *)
      List.rev_map
        (fun (ch, tx_id, s) ->
          let confirmed_at =
            match Chain.tx_receipt ch ~tx_id with
            | Some { Chain.result = Ok (); time; _ } -> Some time
            | Some { Chain.result = Error _; _ } | None -> None
          in
          { s with confirmed_at })
        !submissions
    in
    (* Funds still parked once the run has settled; nonzero means a
       refund was never credited.  A run parks funds only in the two
       HTLC escrows and the Oracle vault, added here in sorted account
       order. *)
    let vault =
      match oracle with
      | Some o -> Chain.balance chain_a ~account:(Oracle.vault_account o)
      | None -> 0.
    in
    let margin_on name tau =
      List.fold_left
        (fun acc s ->
          if String.equal s.chain name then
            match s.confirmed_at with
            | Some c -> max acc (c -. s.submitted_at -. tau)
            | None -> acc
          else acc)
        0. subs
    in
    {
      outcome;
      timeline = tl;
      alice_delta_a = Chain.balance chain_a ~account:alice -. base_a_alice;
      alice_delta_b = Chain.balance chain_b ~account:alice -. base_b_alice;
      bob_delta_a = Chain.balance chain_a ~account:bob -. base_a_bob;
      bob_delta_b = Chain.balance chain_b ~account:bob -. base_b_bob;
      secret_observed_at_t4;
      trace = List.rev !log_rev;
      receipts_a = Chain.receipts chain_a;
      receipts_b = Chain.receipts chain_b;
      telemetry =
        {
          submissions = subs;
          retries = !retries;
          fault_stats_a = Chain.fault_stats chain_a;
          fault_stats_b = Chain.fault_stats chain_b;
          margin_consumed_a = margin_on "chain_a" p.Params.tau_a;
          margin_consumed_b = margin_on "chain_b" p.Params.tau_b;
        };
      escrow_leftover_a =
        0. +. Chain.balance chain_a ~account:escrow_a +. vault;
      escrow_leftover_b = 0. +. Chain.balance chain_b ~account:escrow_b;
    }
  in
  (* Derive the outcome from final contract states once both chains have
     been advanced past every relevant deadline. *)
  let settle ~locked_a ~locked_b ~secret_observed_at_t4 =
    ignore (Chain.advance chain_a ~until:horizon);
    ignore (Chain.advance chain_b ~until:horizon);
    let state_of chain cid =
      Option.map (fun (h : Htlc.t) -> h.Htlc.state) (Chain.htlc chain ~contract_id:cid)
    in
    let outcome =
      match (locked_a, locked_b) with
      | false, _ -> Abort_t1
      | true, false -> Abort_t2
      | true, true -> (
        match (state_of chain_a contract_a, state_of chain_b contract_b) with
        | Some (Htlc.Claimed _), Some (Htlc.Claimed _) -> Success
        | Some (Htlc.Refunded _), Some (Htlc.Refunded _) -> Abort_t3
        | Some (Htlc.Claimed _), Some (Htlc.Refunded _) ->
          Anomalous "Bob claimed Token_a but Alice's claim never landed"
        | Some (Htlc.Refunded _), Some (Htlc.Claimed _) ->
          Anomalous "Alice claimed Token_b but Bob's claim never landed"
        | a, b ->
          let state = function
            | Some s -> Htlc.state_to_string s
            | None -> "missing"
          in
          Anomalous
            (String.concat ""
               [ "unsettled contracts (a="; state a; ", b="; state b; ")" ]))
    in
    finish outcome ~secret_observed_at_t4
  in
  (* --- t1: Alice decides whether to initiate. ------------------------- *)
  let alice_t1 =
    if alice_online tl.Timeline.t1 then policy.Agent.alice_t1 ~p_star
    else begin
      log tl.Timeline.t1 "alice is offline (crash): no initiation";
      Agent.Stop
    end
  in
  match alice_t1 with
  | Agent.Stop ->
    log tl.Timeline.t1 "alice stops at t1: swap not initiated";
    (* Collateral returns to both agents. *)
    oracle_release ~at:tl.Timeline.t1 ~to_:alice ~amount:q "not initiated";
    oracle_release ~at:tl.Timeline.t1 ~to_:bob ~amount:q "not initiated";
    finish Abort_t1 ~secret_observed_at_t4:false
  | Agent.Cont ->
    log tl.Timeline.t1 "alice locks Token_a under the hashlock";
    ignore
      (submit_watched chain_a ~is_online:alice_online ~action:"alice's lock"
         ~at:tl.Timeline.t1 ~deadline:tl.Timeline.t2
         ~confirmed:(lock_confirmed chain_a contract_a)
         (Tx.Htlc_lock
            {
              contract_id = contract_a;
              sender = alice;
              recipient = bob;
              amount = p_star;
              hash = secret.Secret.hash;
              expiry = tl.Timeline.t_lock_a;
            }));
    ignore (Chain.advance chain_a ~until:tl.Timeline.t2);
    (* --- t2: Bob verifies Alice's confirmed contract, then decides. --- *)
    let a_contract_ok =
      match Chain.htlc chain_a ~contract_id:contract_a with
      | Some h -> Htlc.is_locked h
      | None -> false
    in
    let p_t2 = price tl.Timeline.t2 in
    if not a_contract_ok then begin
      log tl.Timeline.t2 "bob aborts: alice's contract not confirmed";
      oracle_release ~at:tl.Timeline.t2 ~to_:alice ~amount:q "setup failure";
      oracle_release ~at:tl.Timeline.t2 ~to_:bob ~amount:q "setup failure";
      settle ~locked_a:true ~locked_b:false ~secret_observed_at_t4:false
    end
    else begin
      let bob_t2 =
        if bob_online tl.Timeline.t2 then policy.Agent.bob_t2 ~p_t2
        else begin
          log tl.Timeline.t2 "bob is offline (crash): no HTLC on chain_b";
          Agent.Stop
        end
      in
      match bob_t2 with
      | Agent.Stop ->
        log tl.Timeline.t2
          ("bob stops at t2 (P_t2 = " ^ g p_t2 ^ "): no HTLC on chain_b");
        (* Bob forfeits: the Oracle pays both deposits to Alice at t3. *)
        oracle_release ~at:tl.Timeline.t3 ~to_:alice ~amount:(2. *. q)
          "bob withdrew";
        settle ~locked_a:true ~locked_b:false ~secret_observed_at_t4:false
      | Agent.Cont ->
        (* Bob's deployed contract, possibly deviating from the deal. *)
        let deployed_amount, deployed_hash, deployed_expiry =
          match bob_deviation with
          | None -> (1., secret.Secret.hash, tl.Timeline.t_lock_b)
          | Some Wrong_hash ->
            (1., Sha256.digest "not the agreed commitment", tl.Timeline.t_lock_b)
          | Some (Short_amount a) -> (a, secret.Secret.hash, tl.Timeline.t_lock_b)
          | Some (Early_expiry hours) ->
            (1., secret.Secret.hash, tl.Timeline.t_lock_b -. hours)
        in
        log tl.Timeline.t2
          ("bob locks Token_b under the same hash (P_t2 = " ^ g p_t2 ^ ")");
        ignore
          (submit_watched chain_b ~is_online:bob_online ~action:"bob's lock"
             ~at:tl.Timeline.t2 ~deadline:tl.Timeline.t3
             ~confirmed:(lock_confirmed chain_b contract_b)
             (Tx.Htlc_lock
                {
                  contract_id = contract_b;
                  sender = bob;
                  recipient = alice;
                  amount = deployed_amount;
                  hash = deployed_hash;
                  expiry = deployed_expiry;
                }));
        ignore (Chain.advance chain_b ~until:tl.Timeline.t3);
        (* Bob fulfilled his obligations: his deposit returns at t3. *)
        oracle_release ~at:tl.Timeline.t3 ~to_:bob ~amount:q
          "bob's obligations fulfilled";
        (* --- t3: Alice verifies Bob's contract, then decides.  Per
           Section II-B she checks that the contract is confirmed, uses
           the agreed hash, carries the full amount, names her as the
           recipient, and leaves her a safe claim window
           (t3 + tau_b <= expiry, Eq. 8). --------------------------------- *)
        let b_contract_problem =
          match Chain.htlc chain_b ~contract_id:contract_b with
          | None -> Some "not deployed"
          | Some h ->
            if not (Htlc.is_locked h) then Some "not in a locked state"
            else if not (String.equal h.Htlc.hash secret.Secret.hash) then
              Some "wrong hashlock commitment"
            else if h.Htlc.amount < 1. -. 1e-12 then Some "short amount"
            else if not (String.equal h.Htlc.recipient alice) then
              Some "wrong recipient"
            else if h.Htlc.expiry < tl.Timeline.t3 +. p.Params.tau_b then
              Some "expiry leaves no safe claim window"
            else None
        in
        let p_t3 = price tl.Timeline.t3 in
        match b_contract_problem with
        | Some reason ->
          log tl.Timeline.t3
            ("alice withholds the secret: bob's contract " ^ reason);
          oracle_release ~at:tl.Timeline.t3 ~to_:alice ~amount:q
            "bob's contract non-conforming";
          settle ~locked_a:true ~locked_b:true ~secret_observed_at_t4:false
        | None -> begin
          let alice_t3 =
            if alice_online tl.Timeline.t3 then policy.Agent.alice_t3 ~p_t3
            else begin
              log tl.Timeline.t3
                "alice is offline (crash): secret never revealed";
              Agent.Stop
            end
          in
          match alice_t3 with
          | Agent.Stop ->
            log tl.Timeline.t3
              ("alice stops at t3 (P_t3 = " ^ g p_t3 ^ "): secret withheld");
            (* Alice forfeits: her deposit goes to Bob at t4. *)
            oracle_release ~at:tl.Timeline.t4 ~to_:bob ~amount:q
              "alice withheld the secret";
            settle ~locked_a:true ~locked_b:true ~secret_observed_at_t4:false
          | Agent.Cont ->
            let reveal_at = tl.Timeline.t3 +. reveal_delay in
            log reveal_at
              ("alice claims Token_b, revealing the preimage (P_t3 = " ^ g p_t3
             ^ ")");
            ignore
              (submit_watched chain_b ~is_online:alice_online
                 ~action:"alice's claim" ~at:reveal_at
                 ~deadline:tl.Timeline.t_lock_b
                 ~confirmed:(claim_confirmed chain_b contract_b)
                 (Tx.Htlc_claim
                    {
                      contract_id = contract_b;
                      preimage = secret.Secret.preimage;
                    }));
            (* --- t4: Bob watches Chain_b's mempool for the secret.
               Even a dropped (censored) claim is mempool-visible, so
               the preimage leaks regardless of confirmation. ---------- *)
            let observe_at = reveal_at +. p.Params.eps_b in
            let observed =
              Chain.observed_preimage chain_b ~at:observe_at
                ~hash:secret.Secret.hash
            in
            (match observed with
            | Some preimage ->
              log observe_at "bob observes the preimage in chain_b's mempool";
              (* Alice fulfilled everything: her deposit returns at t4. *)
              oracle_release ~at:observe_at ~to_:alice ~amount:q
                "alice's obligations fulfilled";
              let bob_claim ~at =
                ignore
                  (submit_watched chain_a ~is_online:bob_online
                     ~action:"bob's claim" ~at ~deadline:tl.Timeline.t_lock_a
                     ~confirmed:(claim_confirmed chain_a contract_a)
                     (Tx.Htlc_claim { contract_id = contract_a; preimage }))
              in
              if policy.Agent.bob_t4 = Agent.Cont && bob_online observe_at
              then begin
                log observe_at "bob claims Token_a with the observed preimage";
                bob_claim ~at:observe_at
              end
              else if not (bob_online observe_at) then begin
                (* Transient outage: on recovery Bob rescans the mempool
                   and claims late — the time lock decides if it lands. *)
                match bob_online_again_at with
                | Some r when r > observe_at && policy.Agent.bob_t4 = Agent.Cont
                  ->
                  log r
                    "bob back online: claims Token_a with the revealed secret";
                  bob_claim ~at:r
                | _ ->
                  log observe_at
                    "bob is offline (crash): the revealed secret goes unclaimed"
              end
              else log observe_at "bob (irrationally) declines to claim"
            | None ->
              log observe_at "bob cannot find the preimage in the mempool");
            settle ~locked_a:true ~locked_b:true
              ~secret_observed_at_t4:(observed <> None)
        end
    end
