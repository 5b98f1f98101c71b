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
  decision_confirmed_at : float option;
  settled_at : float option;
  trace : (float * string) list;
}

let outcome_to_string = function
  | Success -> "success"
  | Abort_t1 -> "abort@t1"
  | Abort_t2 -> "abort@t2"
  | Failed_timeout -> "failed (nobody decided)"
  | Anomalous s -> "anomalous: " ^ s

let alice = "alice"
let bob = "bob"

(* Settlements are signed by a deterministic bridge whose authority is
   the confirmed decision on the witness chain; in the simulation any
   online party may invoke it. *)
let bridge = "wn-bridge"
let escrow_a = "ac3wn:a"
let escrow_b = "ac3wn:b"
let decision_cell = "wn:decision"

let happy_path_hours ?tau_witness (p : Params.t) =
  let tau_w = Option.value ~default:p.Params.tau_a tau_witness in
  let tl = Timeline.ideal p in
  tl.Timeline.t3 +. tau_w +. max p.Params.tau_a p.Params.tau_b

let run ?(policy = Agent.honest) ?price ?tau_witness ?alice_offline_from
    ?bob_offline_from (p : Params.t) ~p_star =
  let price = Option.value ~default:(fun _t -> p.Params.p0) price in
  let tau_w = Option.value ~default:p.Params.tau_a tau_witness in
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
  let chain_w =
    Chain.create ~name:"witness-net" ~token:"WIT" ~tau:tau_w ~mempool_delay:0. ()
  in
  Chain.mint chain_a ~account:alice ~amount:p_star;
  Chain.mint chain_b ~account:bob ~amount:1.;
  Chain.mint chain_w ~account:alice ~amount:1.;
  Chain.mint chain_w ~account:bob ~amount:1.;
  (* Expiries leave room for the witness-chain confirmation. *)
  let expiry_a = tl.Timeline.t_lock_a +. tau_w in
  let expiry_b = tl.Timeline.t_lock_b +. tau_w in
  let horizon = expiry_a +. expiry_b +. (2. *. tau_w) +. 1. in
  let finish outcome ~decision_confirmed_at ~settled_at =
    ignore (Chain.advance chain_a ~until:horizon);
    ignore (Chain.advance chain_b ~until:horizon);
    ignore (Chain.advance chain_w ~until:horizon);
    {
      outcome;
      alice_delta_a = Chain.balance chain_a ~account:alice -. p_star;
      alice_delta_b = Chain.balance chain_b ~account:alice;
      bob_delta_a = Chain.balance chain_a ~account:bob;
      bob_delta_b = Chain.balance chain_b ~account:bob -. 1.;
      decision_confirmed_at;
      settled_at;
      trace = List.rev !trace;
    }
  in
  let settle ~locked_a ~locked_b ~decision_confirmed_at ~settled_at =
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
        | Some (Escrow.Aborted _), Some (Escrow.Aborted _) -> Failed_timeout
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
    finish outcome ~decision_confirmed_at ~settled_at
  in
  (* --- t1 / t2: same engagement structure as AC3TW. ------------------- *)
  let alice_engages =
    online alice_offline_from tl.Timeline.t1
    && policy.Agent.alice_t1 ~p_star = Agent.Cont
  in
  if not alice_engages then begin
    log tl.Timeline.t1 "alice does not engage";
    finish Abort_t1 ~decision_confirmed_at:None ~settled_at:None
  end
  else begin
    log tl.Timeline.t1 "alice escrow-locks Token_a (bridge-arbitrated)";
    ignore
      (Chain.submit chain_a ~at:tl.Timeline.t1
         (Tx.Escrow_lock
            {
              contract_id = escrow_a;
              owner = alice;
              counterparty = bob;
              amount = p_star;
              arbiter = bridge;
              expiry = expiry_a;
            }));
    ignore (Chain.advance chain_a ~until:tl.Timeline.t2);
    let p_t2 = price tl.Timeline.t2 in
    let bob_engages =
      online bob_offline_from tl.Timeline.t2
      && policy.Agent.bob_t2 ~p_t2 = Agent.Cont
    in
    if not bob_engages then begin
      log tl.Timeline.t2 (Printf.sprintf "bob does not engage (P_t2 = %g)" p_t2);
      settle ~locked_a:true ~locked_b:false ~decision_confirmed_at:None
        ~settled_at:None
    end
    else begin
      log tl.Timeline.t2
        (Printf.sprintf "bob escrow-locks Token_b (P_t2 = %g)" p_t2);
      ignore
        (Chain.submit chain_b ~at:tl.Timeline.t2
           (Tx.Escrow_lock
              {
                contract_id = escrow_b;
                owner = bob;
                counterparty = alice;
                amount = 1.;
                arbiter = bridge;
                expiry = expiry_b;
              }));
      ignore (Chain.advance chain_b ~until:tl.Timeline.t3);
      (* --- t3: ANY online party posts the commit decision on the
         witness chain; it confirms tau_w later. ----------------------- *)
      let t3 = tl.Timeline.t3 in
      let poster =
        if online alice_offline_from t3 then Some alice
        else if online bob_offline_from t3 then Some bob
        else None
      in
      match poster with
      | None ->
        log t3 "no party alive to post the decision; escrows will time out";
        settle ~locked_a:true ~locked_b:true ~decision_confirmed_at:None
          ~settled_at:None
      | Some who ->
        log t3 (Printf.sprintf "%s posts the commit decision on the witness network" who);
        ignore
          (Chain.submit chain_w ~at:t3
             (Tx.Transfer { from_ = who; to_ = decision_cell; amount = 0. }));
        let decided_at = t3 +. tau_w in
        ignore (Chain.advance chain_w ~until:decided_at);
        (* --- decision confirmed: any online party triggers the bridge
           settlements on both asset chains. --------------------------- *)
        let trigger =
          if online alice_offline_from decided_at then Some alice
          else if online bob_offline_from decided_at then Some bob
          else None
        in
        (match trigger with
        | None ->
          log decided_at
            "decision confirmed but nobody alive to trigger settlement"
        | Some who ->
          log decided_at
            (Printf.sprintf
               "%s triggers the bridge settlements with the confirmed decision"
               who);
          ignore
            (Chain.submit chain_a ~at:decided_at
               (Tx.Escrow_decide
                  { contract_id = escrow_a; by = bridge; commit = true }));
          ignore
            (Chain.submit chain_b ~at:decided_at
               (Tx.Escrow_decide
                  { contract_id = escrow_b; by = bridge; commit = true })));
        let settled_at =
          match trigger with
          | Some _ ->
            Some (decided_at +. max p.Params.tau_a p.Params.tau_b)
          | None -> None
        in
        settle ~locked_a:true ~locked_b:true
          ~decision_confirmed_at:(Some decided_at) ~settled_at
    end
  end
