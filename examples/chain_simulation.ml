(* Scenario: the chain simulator as a test bench for HTLC edge cases —
   what the game-theory model abstracts away.  Demonstrates mempool
   secret sniffing, expiry refunds, late reveals and wrong preimages
   directly against the ledger.

     dune exec examples/chain_simulation.exe *)

open Chainsim

let show_receipts label receipts =
  Printf.printf "%s\n" label;
  List.iter
    (fun (r : Chain.receipt) ->
      Printf.printf "  [%5.1f h] %s -> %s\n" r.Chain.time (Chain.describe r)
        (match r.Chain.result with Ok () -> "ok" | Error e -> "FAILED: " ^ e))
    receipts

let () =
  print_endline "HTLC mechanics on the deterministic chain simulator\n";
  let rng = Numerics.Rng.create ~seed:7 () in
  let secret = Secret.generate rng in
  Printf.printf "hashlock commitment: %s\n\n" (Secret.hash_hex secret);

  (* 1. Happy path: lock, claim with the right preimage. *)
  let chain = Chain.create ~name:"demo" ~token:"TKN" ~tau:2. ~mempool_delay:0.5 () in
  Chain.mint chain ~account:"alice" ~amount:10.;
  ignore
    (Chain.submit chain ~at:0.
       (Tx.Htlc_lock
          {
            contract_id = "c1";
            sender = "alice";
            recipient = "bob";
            amount = 4.;
            hash = secret.Secret.hash;
            expiry = 10.;
          }));
  ignore
    (Chain.submit chain ~at:3.
       (Tx.Htlc_claim { contract_id = "c1"; preimage = secret.Secret.preimage }));
  show_receipts "1. lock then claim:" (Chain.advance chain ~until:6.);
  Printf.printf "  bob's balance: %g\n\n" (Chain.balance chain ~account:"bob");

  (* 2. Wrong preimage is rejected; funds refund at expiry. *)
  let chain2 = Chain.create ~name:"demo2" ~token:"TKN" ~tau:2. ~mempool_delay:0.5 () in
  Chain.mint chain2 ~account:"alice" ~amount:10.;
  ignore
    (Chain.submit chain2 ~at:0.
       (Tx.Htlc_lock
          {
            contract_id = "c2";
            sender = "alice";
            recipient = "bob";
            amount = 4.;
            hash = secret.Secret.hash;
            expiry = 6.;
          }));
  ignore
    (Chain.submit chain2 ~at:3.
       (Tx.Htlc_claim { contract_id = "c2"; preimage = "not the secret" }));
  show_receipts "2. wrong preimage, then expiry refund:"
    (Chain.advance chain2 ~until:12.);
  Printf.printf "  alice's balance restored: %g\n\n"
    (Chain.balance chain2 ~account:"alice");

  (* 3. Late claim: submitted before expiry but confirmed after — the
     exact failure mode that forces t5 <= t_b in Eq. 8. *)
  let chain3 = Chain.create ~name:"demo3" ~token:"TKN" ~tau:2. ~mempool_delay:0.5 () in
  Chain.mint chain3 ~account:"alice" ~amount:10.;
  ignore
    (Chain.submit chain3 ~at:0.
       (Tx.Htlc_lock
          {
            contract_id = "c3";
            sender = "alice";
            recipient = "bob";
            amount = 4.;
            hash = secret.Secret.hash;
            expiry = 4.5;
          }));
  ignore
    (Chain.submit chain3 ~at:3.
       (Tx.Htlc_claim { contract_id = "c3"; preimage = secret.Secret.preimage }));
  show_receipts "3. claim confirms after expiry:" (Chain.advance chain3 ~until:12.);

  (* 4. Mempool sniffing: the counterparty sees the preimage eps after
     submission, well before confirmation (Eq. 7). *)
  let observed_early =
    Chain.observed_preimage chain ~at:3.6 ~hash:secret.Secret.hash
  in
  let observed_too_early =
    Chain.observed_preimage chain ~at:3.4 ~hash:secret.Secret.hash
  in
  Printf.printf "\n4. mempool visibility of the claim submitted at t=3:\n";
  Printf.printf "  at t=3.4 (before eps): %s\n"
    (match observed_too_early with Some _ -> "visible" | None -> "not visible");
  Printf.printf "  at t=3.6 (after eps):  %s\n"
    (match observed_early with Some _ -> "visible (secret leaked)" | None -> "not visible");

  (* 5. Conservation: total supply never changes. *)
  Printf.printf "\n5. token conservation: %g = %g = %g (all demos)\n"
    (Chain.total_supply chain) (Chain.total_supply chain2)
    (Chain.total_supply chain3);

  (* 6. Explorer view of the first chain. *)
  print_endline "\n6. explorer view of demo chain 1:";
  print_string (Explorer.render chain)
