(* Full protocol execution of a swap graph on simulated chains — the
   N-party generalisation of the 2-party HTLC run.

   One chain per arc (the ledger carrying that transfer's asset), all
   locks hashed to one secret held by the leader.  The lock phase
   walks parties in canonical decision order: each locks every
   outgoing arc at its level's lock time, unless it is offline or its
   policy declines.  Once all locks confirm the leader decides the
   reveal; claims then cascade along the timelock schedule, each arc
   claimed by its recipient at its scheduled claim time.  Anything
   unclaimed refunds at expiry, so the final contract states classify
   the run: all claimed (atomic success), all refunded (clean abort),
   or mixed — the atomicity anomaly a mid-cascade crash produces. *)

open Chainsim

type decision = Cont | Stop

type outcome =
  | Success
  | Abort_at_lock of int
  | Abort_no_reveal
  | Anomalous of string

type result = {
  outcome : outcome;
  deltas : (float * float) array;
  trace : (float * string) list;
}

let party_name v = Printf.sprintf "party%d" v
let contract_name a = Printf.sprintf "hop:%d" a

let run ?(decisions = fun _v ~price:_ -> Cont) ?(offline = [])
    ?(prices = fun _a _t -> 2.) ?(seed = 0xcafe) g (s : Timelock.schedule) =
  let arcs = Graph.arcs g in
  let n_arcs = Array.length arcs in
  let trace = ref [] in
  let log t msg = trace := (t, msg) :: !trace in
  let online v at =
    not (List.exists (fun (j, from) -> j = v && at >= from) offline)
  in
  let chains =
    Array.init n_arcs (fun a ->
        Chain.create
          ~name:(Printf.sprintf "chain%d" a)
          ~token:(Printf.sprintf "asset%d" a)
          ~tau:s.Timelock.tau ~mempool_delay:s.Timelock.eps ())
  in
  Array.iteri
    (fun a arc ->
      Chain.mint chains.(a) ~account:(party_name arc.Graph.src) ~amount:1.)
    arcs;
  let secret = Secret.generate (Numerics.Rng.create ~seed ()) in
  let finish outcome =
    Array.iter
      (fun c -> ignore (Chain.advance c ~until:s.Timelock.horizon))
      chains;
    let deltas =
      Array.init (Graph.n g) (fun v ->
          let sum f l = List.fold_left (fun acc a -> acc +. f a) 0. l in
          let outgoing =
            sum
              (fun a -> Chain.balance chains.(a) ~account:(party_name v) -. 1.)
              (Graph.out_arcs g v)
          in
          let incoming =
            sum
              (fun a -> Chain.balance chains.(a) ~account:(party_name v))
              (Graph.in_arcs g v)
          in
          (outgoing, incoming))
    in
    { outcome; deltas; trace = List.rev !trace }
  in
  let lock_arc a at =
    let arc = arcs.(a) in
    log at
      (Printf.sprintf "%s locks asset%d for %s" (party_name arc.Graph.src) a
         (party_name arc.Graph.dst));
    ignore
      (Chain.submit chains.(a) ~at
         (Tx.Htlc_lock
            {
              contract_id = contract_name a;
              sender = party_name arc.Graph.src;
              recipient = party_name arc.Graph.dst;
              amount = 1.;
              hash = secret.Secret.hash;
              expiry = s.Timelock.expiry.(a);
            }));
    ignore (Chain.advance chains.(a) ~until:(at +. s.Timelock.tau))
  in
  (* Lock phase, level by level away from the leader.  A party's
     strategic exit is before its own locks; the leader's is the
     reveal, so it locks unconditionally (like Alice's t1). *)
  let order = Graph.decision_order g in
  let rec lock_phase i =
    if i >= Array.length order then None
    else begin
      let v = order.(i) in
      let out = Graph.out_arcs g v in
      let at = s.Timelock.lock_time.(List.hd out) in
      let decision =
        if not (online v at) then begin
          log at (Printf.sprintf "%s offline: no lock" (party_name v));
          Stop
        end
        else if v = Graph.leader g then Cont
        else decisions v ~price:(prices (List.hd out) at)
      in
      match decision with
      | Stop ->
        if online v at then
          log at
            (Printf.sprintf "%s declines to lock (price %g)" (party_name v)
               (prices (List.hd out) at));
        Some v
      | Cont ->
        List.iter (fun a -> lock_arc a at) out;
        lock_phase (i + 1)
    end
  in
  match lock_phase 0 with
  | Some v -> finish (Abort_at_lock v)
  | None ->
    let reveal_at = s.Timelock.lock_phase_end in
    let leader = Graph.leader g in
    let leader_price = prices (List.hd (Graph.in_arcs g leader)) reveal_at in
    let leader_decision =
      if not (online leader reveal_at) then begin
        log reveal_at "leader offline: secret never revealed";
        Stop
      end
      else decisions leader ~price:leader_price
    in
    (match leader_decision with
    | Stop ->
      if online leader reveal_at then
        log reveal_at "leader withholds the secret"
    | Cont ->
      log reveal_at "leader reveals the secret";
      (* Claims cascade in schedule order; each arc's recipient claims
         at its scheduled time if still online. *)
      let by_time = Array.init n_arcs (fun a -> a) in
      Array.sort
        (fun a b ->
          match compare s.Timelock.claim_time.(a) s.Timelock.claim_time.(b) with
          | 0 -> compare a b
          | c -> c)
        by_time;
      Array.iter
        (fun a ->
          let at = s.Timelock.claim_time.(a) in
          let claimer = arcs.(a).Graph.dst in
          if online claimer at then begin
            log at (Printf.sprintf "%s claims asset%d" (party_name claimer) a);
            ignore
              (Chain.submit chains.(a) ~at
                 (Tx.Htlc_claim
                    {
                      contract_id = contract_name a;
                      preimage = secret.Secret.preimage;
                    }))
          end
          else
            log at
              (Printf.sprintf "%s offline: claim missed" (party_name claimer)))
        by_time);
    Array.iter
      (fun c -> ignore (Chain.advance c ~until:s.Timelock.horizon))
      chains;
    let states =
      Array.init n_arcs (fun a ->
          match Chain.htlc chains.(a) ~contract_id:(contract_name a) with
          | Some h -> h.Htlc.state
          | None -> Htlc.Refunded { at = 0. })
    in
    let claimed =
      Array.for_all (function Htlc.Claimed _ -> true | _ -> false) states
    in
    let refunded =
      Array.for_all (function Htlc.Refunded _ -> true | _ -> false) states
    in
    if claimed then finish Success
    else if refunded then finish Abort_no_reveal
    else
      finish
        (Anomalous
           (String.concat ", "
              (Array.to_list
                 (Array.mapi
                    (fun a st ->
                      Printf.sprintf "hop%d=%s" a (Htlc.state_to_string st))
                    states))))
