open Chainsim

type outcome =
  | Success
  | Abort_t1
  | Abort_t2
  | Failed_timeout
  | Anomalous of string

type result = {
  outcome : outcome;
  alice_delta_a : float;
  alice_delta_b : float;
  bob_delta_a : float;
  bob_delta_b : float;
  trace : (float * string) list;
}

let outcome_to_string = function
  | Success -> "success"
  | Abort_t1 -> "abort@t1"
  | Abort_t2 -> "abort@t2"
  | Failed_timeout -> "failed (witness timeout)"
  | Anomalous s -> "anomalous: " ^ s

(* Bob's continuation band when Alice cannot defect: the k3 = 0 limit
   of the Eq. 21 machinery (every deployed swap completes). *)
let bob_band (p : Params.t) ~p_star =
  Cutoff.t2_region p ~p_star (Utility.b_t2_cont p ~p_star ~k3:0.)

let success_rate ?quad_nodes (p : Params.t) ~p_star =
  let band = bob_band p ~p_star in
  if Intervals.is_empty band then 0.
  else Success.analytic_given ?quad_nodes p ~k3:0. ~band

let a_t1_net ?quad_nodes (p : Params.t) ~p_star =
  let band = bob_band p ~p_star in
  Utility.a_t1_cont ?quad_nodes p ~p_star ~k3:0. ~band
  -. Utility.a_t1_stop ~p_star

let feasible_band ?quad_nodes (p : Params.t) =
  Intervals.hull
    (Cutoff.p_star_region p (fun p_star -> a_t1_net ?quad_nodes p ~p_star))

let alice = "alice"
let bob = "bob"
let witness = "witness"
let escrow_a = "ac3:a"
let escrow_b = "ac3:b"

let run ?(policy = Agent.honest) ?price ?alice_offline_from ?bob_offline_from
    ?witness_offline_from (p : Params.t) ~p_star =
  let price = Option.value ~default:(fun _t -> p.Params.p0) price in
  let tl = Timeline.ideal p in
  let trace = ref [] in
  let log t msg = trace := (t, msg) :: !trace in
  let online offline_from at =
    match offline_from with None -> true | Some t -> at < t
  in
  let chain_a =
    Chain.create ~name:"chain_a" ~token:"TokenA" ~tau:p.Params.tau_a
      ~mempool_delay:0. ()
  in
  let chain_b =
    Chain.create ~name:"chain_b" ~token:"TokenB" ~tau:p.Params.tau_b
      ~mempool_delay:p.Params.eps_b ()
  in
  Chain.mint chain_a ~account:alice ~amount:p_star;
  Chain.mint chain_b ~account:bob ~amount:1.;
  let horizon = tl.Timeline.t8 +. p.Params.tau_a +. p.Params.tau_b +. 1. in
  let finish outcome =
    ignore (Chain.advance chain_a ~until:horizon);
    ignore (Chain.advance chain_b ~until:horizon);
    {
      outcome;
      alice_delta_a = Chain.balance chain_a ~account:alice -. p_star;
      alice_delta_b = Chain.balance chain_b ~account:alice;
      bob_delta_a = Chain.balance chain_a ~account:bob;
      bob_delta_b = Chain.balance chain_b ~account:bob -. 1.;
      trace = List.rev !trace;
    }
  in
  (* Outcome from final escrow states. *)
  let settle ~locked_a ~locked_b ~witness_decided =
    ignore (Chain.advance chain_a ~until:horizon);
    ignore (Chain.advance chain_b ~until:horizon);
    let state_of chain cid =
      Option.map
        (fun (e : Escrow.t) -> e.Escrow.state)
        (Chain.escrow chain ~contract_id:cid)
    in
    let outcome =
      match (locked_a, locked_b) with
      | false, _ -> Abort_t1
      | true, false -> Abort_t2
      | true, true -> (
        match (state_of chain_a escrow_a, state_of chain_b escrow_b) with
        | Some (Escrow.Committed _), Some (Escrow.Committed _) -> Success
        | Some (Escrow.Aborted _), Some (Escrow.Aborted _) ->
          if witness_decided then Abort_t2 else Failed_timeout
        | a, b ->
          Anomalous
            (Printf.sprintf "mixed escrow states (a=%s, b=%s)"
               (match a with
               | Some s -> Escrow.state_to_string s
               | None -> "missing")
               (match b with
               | Some s -> Escrow.state_to_string s
               | None -> "missing")))
    in
    finish outcome
  in
  (* --- t1 ------------------------------------------------------------- *)
  let alice_engages =
    online alice_offline_from tl.Timeline.t1
    && policy.Agent.alice_t1 ~p_star = Agent.Cont
  in
  if not alice_engages then begin
    log tl.Timeline.t1 "alice does not engage";
    finish Abort_t1
  end
  else begin
    log tl.Timeline.t1 "alice escrow-locks Token_a with the witness as arbiter";
    ignore
      (Chain.submit chain_a ~at:tl.Timeline.t1
         (Tx.Escrow_lock
            {
              contract_id = escrow_a;
              owner = alice;
              counterparty = bob;
              amount = p_star;
              arbiter = witness;
              expiry = tl.Timeline.t_lock_a;
            }));
    ignore (Chain.advance chain_a ~until:tl.Timeline.t2);
    let p_t2 = price tl.Timeline.t2 in
    let bob_engages =
      online bob_offline_from tl.Timeline.t2
      && (match Chain.escrow chain_a ~contract_id:escrow_a with
         | Some e -> Escrow.is_held e
         | None -> false)
      && policy.Agent.bob_t2 ~p_t2 = Agent.Cont
    in
    if not bob_engages then begin
      log tl.Timeline.t2
        (Printf.sprintf "bob does not engage (P_t2 = %g)" p_t2);
      (* The witness aborts Alice's escrow right away: she is refunded
         at t2 + tau_a instead of waiting for the time lock (one of the
         commit protocol's advantages). *)
      if online witness_offline_from tl.Timeline.t2 then begin
        log tl.Timeline.t2 "witness aborts alice's escrow early";
        ignore
          (Chain.submit chain_a ~at:tl.Timeline.t2
             (Tx.Escrow_decide
                { contract_id = escrow_a; by = witness; commit = false }))
      end;
      settle ~locked_a:true ~locked_b:false ~witness_decided:true
    end
    else begin
      log tl.Timeline.t2 (Printf.sprintf "bob escrow-locks Token_b (P_t2 = %g)" p_t2);
      ignore
        (Chain.submit chain_b ~at:tl.Timeline.t2
           (Tx.Escrow_lock
              {
                contract_id = escrow_b;
                owner = bob;
                counterparty = alice;
                amount = 1.;
                arbiter = witness;
                expiry = tl.Timeline.t_lock_b;
              }));
      ignore (Chain.advance chain_b ~until:tl.Timeline.t3);
      (* --- t3: the witness, seeing both escrows confirmed, commits
         both chains.  No agent action is required from here on. ------- *)
      let both_held =
        (match Chain.escrow chain_a ~contract_id:escrow_a with
        | Some e -> Escrow.is_held e
        | None -> false)
        && (match Chain.escrow chain_b ~contract_id:escrow_b with
           | Some e -> Escrow.is_held e
           | None -> false)
      in
      let witness_up = online witness_offline_from tl.Timeline.t3 in
      if both_held && witness_up then begin
        log tl.Timeline.t3 "witness commits both escrows";
        ignore
          (Chain.submit chain_a ~at:tl.Timeline.t3
             (Tx.Escrow_decide
                { contract_id = escrow_a; by = witness; commit = true }));
        ignore
          (Chain.submit chain_b ~at:tl.Timeline.t3
             (Tx.Escrow_decide
                { contract_id = escrow_b; by = witness; commit = true }));
        settle ~locked_a:true ~locked_b:true ~witness_decided:true
      end
      else begin
        if not witness_up then
          log tl.Timeline.t3
            "witness offline: both escrows will refund at their expiries"
        else log tl.Timeline.t3 "escrow setup failed; witness stands down";
        settle ~locked_a:true ~locked_b:true ~witness_decided:false
      end
    end
  end
