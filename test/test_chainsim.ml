(* Tests for the blockchain simulator: SHA-256, heaps, secrets,
   ledgers, HTLC semantics, chain timing, mempool visibility and the
   collateral Oracle. *)

open Chainsim

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

(* --- SHA-256 (FIPS 180-4 test vectors) --------------------------------- *)

let hex msg = Sha256.hex_of_bytes (Sha256.digest msg)

let test_sha256_vectors () =
  let cases =
    [
      ( "",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" );
      ( "abc",
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" );
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "The quick brown fox jumps over the lazy dog",
        "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
    ]
  in
  List.iter
    (fun (msg, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "sha256(%S)" msg)
        expected (hex msg))
    cases

let test_sha256_long_input () =
  (* One million 'a' characters — the classic long vector. *)
  let msg = String.make 1_000_000 'a' in
  Alcotest.(check string)
    "sha256(a^1e6)"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex msg)

let test_sha256_block_boundaries () =
  (* Inputs spanning the 55/56/64-byte padding boundaries must differ
     and be deterministic. *)
  let digests =
    List.map (fun n -> hex (String.make n 'x')) [ 54; 55; 56; 63; 64; 65 ]
  in
  let uniq = List.sort_uniq compare digests in
  Alcotest.(check int) "all distinct" (List.length digests) (List.length uniq)

(* --- Heap ------------------------------------------------------------------ *)

(* Pop until empty: the order the chain's event queue runs in. *)
let drain h =
  let rec go acc = match Heap.pop h with Some x -> go (x :: acc) | None -> List.rev acc in
  go []

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  Alcotest.(check (option int)) "peek" (Some 0) (Heap.peek h);
  Alcotest.(check (option int)) "peek does not pop" (Some 0) (Heap.peek h);
  Alcotest.(check (list int)) "sorted drain" [ 0; 1; 1; 3; 4; 5; 9 ] (drain h);
  Alcotest.(check (option int)) "drained" None (Heap.peek h)

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  Alcotest.(check (list int)) "drain empty" [] (drain h)

(* --- Secrets ----------------------------------------------------------------- *)

let test_secret_roundtrip () =
  let rng = Numerics.Rng.create ~seed:3 () in
  let s = Secret.generate rng in
  Alcotest.(check bool) "verify own preimage" true
    (Secret.verify ~hash:s.Secret.hash ~preimage:s.Secret.preimage);
  Alcotest.(check bool) "reject other preimage" false
    (Secret.verify ~hash:s.Secret.hash ~preimage:"wrong");
  Alcotest.(check int) "hex length" 64 (String.length (Secret.hash_hex s))

let test_secret_distinct () =
  let rng = Numerics.Rng.create ~seed:3 () in
  let a = Secret.generate rng and b = Secret.generate rng in
  Alcotest.(check bool) "fresh secrets differ" false
    (String.equal a.Secret.preimage b.Secret.preimage)

(* [verify] keeps each domain's last (preimage, digest) pair.  After a
   hit on P, no variation of P, no other hash and no other secret may
   be answered from it. *)
let test_secret_memo_soundness () =
  let rng = Numerics.Rng.create ~seed:11 () in
  let s = Secret.generate rng and t = Secret.generate rng in
  let p = s.Secret.preimage in
  let verify ~hash preimage = Secret.verify ~hash ~preimage in
  Alcotest.(check bool) "memoised hashes are the digests" true
    (String.equal s.Secret.hash (Sha256.digest p)
    && String.equal t.Secret.hash (Sha256.digest t.Secret.preimage));
  Alcotest.(check bool) "P verifies" true (verify ~hash:s.Secret.hash p);
  String.iteri
    (fun i _ ->
      let flipped =
        String.mapi
          (fun j c -> if j = i then Char.chr (Char.code c lxor 0x01) else c)
          p
      in
      if verify ~hash:s.Secret.hash flipped then
        Alcotest.failf "P with byte %d flipped verifies after a hit on P" i;
      if not (verify ~hash:s.Secret.hash p) then
        Alcotest.failf "P fails after its byte-%d variant" i)
    p;
  Alcotest.(check bool) "P against another secret's hash" false
    (verify ~hash:t.Secret.hash p);
  Alcotest.(check bool) "P against an unrelated hash" false
    (verify ~hash:(Sha256.digest "unrelated") p);
  for _ = 1 to 4 do
    Alcotest.(check bool) "S interleaved" true (verify ~hash:s.Secret.hash p);
    Alcotest.(check bool) "T interleaved" true
      (verify ~hash:t.Secret.hash t.Secret.preimage);
    Alcotest.(check bool) "T's preimage under S's hash" false
      (verify ~hash:s.Secret.hash t.Secret.preimage);
    Alcotest.(check bool) "S's preimage under T's hash" false
      (verify ~hash:t.Secret.hash p)
  done

(* Four domains, each verifying its own preimage interleaved with the
   others', at once: every answer is the digest comparison. *)
let test_secret_memo_domains () =
  (* Hashed by [Sha256] itself, so nothing here depends on the memo. *)
  let secrets =
    Array.init 4 (fun i ->
        let preimage = Printf.sprintf "preimage of domain %d" i in
        (preimage, Sha256.digest preimage))
  in
  let worker i () =
    let own, own_hash = secrets.(i) in
    let wrong = ref 0 in
    for k = 1 to 1500 do
      let other, other_hash = secrets.((i + 1 + (k mod 3)) mod 4) in
      let expect hash preimage want =
        if Secret.verify ~hash ~preimage <> want then incr wrong
      in
      expect own_hash own true;
      expect own_hash other false;
      expect other_hash other true;
      expect other_hash own false
    done;
    !wrong
  in
  let domains = Array.init 4 (fun i -> Domain.spawn (worker i)) in
  Array.iteri
    (fun i d ->
      Alcotest.(check int) (Printf.sprintf "domain %d wrong answers" i) 0
        (Domain.join d))
    domains

(* --- Ledger --------------------------------------------------------------------- *)

let test_ledger_transfer () =
  let l = Ledger.create () in
  Ledger.mint l "a" 10.;
  Ledger.transfer l ~from_:"a" ~to_:"b" ~amount:4.;
  check_float "a" 6. (Ledger.balance l "a");
  check_float "b" 4. (Ledger.balance l "b");
  check_float "supply" 10. (Ledger.total_supply l)

let test_ledger_insufficient () =
  let l = Ledger.create () in
  Ledger.mint l "a" 1.;
  (try
     Ledger.transfer l ~from_:"a" ~to_:"b" ~amount:2.;
     Alcotest.fail "expected Insufficient_funds"
   with Ledger.Insufficient_funds { have; need; _ } ->
     check_float "have" 1. have;
     check_float "need" 2. need);
  check_float "unchanged" 1. (Ledger.balance l "a")

(* --- HTLC state machine ----------------------------------------------------------- *)

let make_htlc () =
  let s = Secret.of_preimage "p" in
  ( s,
    Htlc.create ~contract_id:"c" ~sender:"a" ~recipient:"b" ~amount:1.
      ~hash:s.Secret.hash ~expiry:10. ~created_at:0. )

let test_htlc_claim_ok () =
  let s, h = make_htlc () in
  match Htlc.try_claim h ~preimage:s.Secret.preimage ~at:5. with
  | Ok h' -> Alcotest.(check bool) "not locked" false (Htlc.is_locked h')
  | Error e -> Alcotest.failf "claim failed: %s" e

let test_htlc_claim_late () =
  let s, h = make_htlc () in
  match Htlc.try_claim h ~preimage:s.Secret.preimage ~at:10.5 with
  | Error "time lock expired" -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" e
  | Ok _ -> Alcotest.fail "late claim must fail"

let test_htlc_claim_bad_preimage () =
  let _, h = make_htlc () in
  match Htlc.try_claim h ~preimage:"nope" ~at:5. with
  | Error "preimage does not match hashlock" -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" e
  | Ok _ -> Alcotest.fail "bad preimage must fail"

let test_htlc_refund_rules () =
  let _, h = make_htlc () in
  (match Htlc.try_refund h ~at:5. with
  | Error "time lock not yet expired" -> ()
  | _ -> Alcotest.fail "early refund must fail");
  match Htlc.try_refund h ~at:10. with
  | Ok h' -> (
    match Htlc.try_refund h' ~at:11. with
    | Error "already refunded" -> ()
    | _ -> Alcotest.fail "double refund must fail")
  | Error e -> Alcotest.failf "refund at expiry failed: %s" e

let test_htlc_no_double_claim () =
  let s, h = make_htlc () in
  match Htlc.try_claim h ~preimage:s.Secret.preimage ~at:5. with
  | Ok h' -> (
    match Htlc.try_claim h' ~preimage:s.Secret.preimage ~at:6. with
    | Error "already claimed" -> ()
    | _ -> Alcotest.fail "double claim must fail")
  | Error e -> Alcotest.failf "claim failed: %s" e

(* --- Chain ----------------------------------------------------------------------------- *)

let fresh_chain () =
  Chain.create ~name:"test" ~token:"TKN" ~tau:2. ~mempool_delay:0.5 ()

let test_chain_confirmation_delay () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:5.;
  ignore (Chain.submit c ~at:1. (Tx.Transfer { from_ = "a"; to_ = "b"; amount = 3. }));
  ignore (Chain.advance c ~until:2.9);
  check_float "not yet confirmed" 0. (Chain.balance c ~account:"b");
  ignore (Chain.advance c ~until:3.0);
  check_float "confirmed at submit+tau" 3. (Chain.balance c ~account:"b")

let test_chain_event_order_fifo () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:1.;
  (* Two conflicting transfers submitted at the same instant: only the
     first can succeed. *)
  ignore (Chain.submit c ~at:0. (Tx.Transfer { from_ = "a"; to_ = "b"; amount = 1. }));
  ignore (Chain.submit c ~at:0. (Tx.Transfer { from_ = "a"; to_ = "c"; amount = 1. }));
  let receipts = Chain.advance c ~until:5. in
  (match receipts with
  | [ r1; r2 ] ->
    Alcotest.(check bool) "first ok" true (Result.is_ok r1.Chain.result);
    Alcotest.(check bool) "second fails" true (Result.is_error r2.Chain.result)
  | _ -> Alcotest.fail "expected two receipts");
  check_float "b got it" 1. (Chain.balance c ~account:"b")

let test_chain_htlc_lifecycle () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:5.;
  let s = Secret.of_preimage "swap" in
  ignore
    (Chain.submit c ~at:0.
       (Tx.Htlc_lock
          { contract_id = "h"; sender = "a"; recipient = "b"; amount = 4.;
            hash = s.Secret.hash; expiry = 10. }));
  ignore (Chain.advance c ~until:2.);
  check_float "escrowed" 1. (Chain.balance c ~account:"a");
  check_float "escrow account holds" 4.
    (Chain.balance c ~account:(Chain.escrow_account ~contract_id:"h"));
  ignore
    (Chain.submit c ~at:3.
       (Tx.Htlc_claim { contract_id = "h"; preimage = s.Secret.preimage }));
  ignore (Chain.advance c ~until:5.);
  check_float "claimed" 4. (Chain.balance c ~account:"b");
  check_float "supply conserved" 5. (Chain.total_supply c)

let test_chain_auto_refund_timing () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:5.;
  let s = Secret.of_preimage "swap" in
  ignore
    (Chain.submit c ~at:0.
       (Tx.Htlc_lock
          { contract_id = "h"; sender = "a"; recipient = "b"; amount = 4.;
            hash = s.Secret.hash; expiry = 6. }));
  (* Funds return at expiry + tau = 8 (Eqs. 10-11). *)
  ignore (Chain.advance c ~until:7.9);
  check_float "not yet refunded" 1. (Chain.balance c ~account:"a");
  ignore (Chain.advance c ~until:8.);
  check_float "refunded at expiry+tau" 5. (Chain.balance c ~account:"a")

let test_chain_claim_beats_expiry_boundary () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:5.;
  let s = Secret.of_preimage "swap" in
  ignore
    (Chain.submit c ~at:0.
       (Tx.Htlc_lock
          { contract_id = "h"; sender = "a"; recipient = "b"; amount = 4.;
            hash = s.Secret.hash; expiry = 6. }));
  (* Claim submitted at 4 confirms exactly at expiry: still valid. *)
  ignore
    (Chain.submit c ~at:4.
       (Tx.Htlc_claim { contract_id = "h"; preimage = s.Secret.preimage }));
  ignore (Chain.advance c ~until:10.);
  check_float "claim at boundary succeeds" 4. (Chain.balance c ~account:"b")

let test_chain_mempool_visibility () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:5.;
  let s = Secret.of_preimage "sniff" in
  ignore
    (Chain.submit c ~at:0.
       (Tx.Htlc_lock
          { contract_id = "h"; sender = "a"; recipient = "b"; amount = 1.;
            hash = s.Secret.hash; expiry = 10. }));
  ignore
    (Chain.submit c ~at:3.
       (Tx.Htlc_claim { contract_id = "h"; preimage = s.Secret.preimage }));
  Alcotest.(check (option string))
    "invisible before delay" None
    (Chain.observed_preimage c ~at:3.4 ~hash:s.Secret.hash);
  Alcotest.(check (option string))
    "visible after delay" (Some s.Secret.preimage)
    (Chain.observed_preimage c ~at:3.5 ~hash:s.Secret.hash)

let test_chain_rejects_past_submission () =
  let c = fresh_chain () in
  ignore (Chain.advance c ~until:5.);
  match
    Chain.submit c ~at:1. (Tx.Transfer { from_ = "a"; to_ = "b"; amount = 0. })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of past submission"

let test_chain_duplicate_contract () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:5.;
  let s = Secret.of_preimage "x" in
  let lock expiry =
    Tx.Htlc_lock
      { contract_id = "dup"; sender = "a"; recipient = "b"; amount = 1.;
        hash = s.Secret.hash; expiry }
  in
  ignore (Chain.submit c ~at:0. (lock 10.));
  ignore (Chain.submit c ~at:0.5 (lock 12.));
  let receipts = Chain.advance c ~until:3. in
  match receipts with
  | [ r1; r2 ] ->
    Alcotest.(check bool) "first ok" true (Result.is_ok r1.Chain.result);
    Alcotest.(check bool) "duplicate rejected" true
      (Result.is_error r2.Chain.result)
  | _ -> Alcotest.fail "expected two receipts"

let test_chain_mempool_delay_constraint () =
  Alcotest.(check bool) "eps < tau enforced" true
    (match Chain.create ~name:"x" ~token:"t" ~tau:1. ~mempool_delay:1. () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Fault injection ---------------------------------------------------------- *)

let faulty_chain ?(seed = 7) faults =
  Chain.create ~faults ~fault_seed:seed ~name:"test" ~token:"TKN" ~tau:2.
    ~mempool_delay:0.5 ()

let test_fault_drop_keeps_mempool_visibility () =
  let c = faulty_chain (Faults.create ~drop_prob:1. ()) in
  Chain.mint c ~account:"a" ~amount:5.;
  let s = Secret.of_preimage "leak" in
  let tx =
    Chain.submit c ~at:0.
      (Tx.Htlc_claim { contract_id = "h"; preimage = s.Secret.preimage })
  in
  ignore (Chain.advance c ~until:50.);
  Alcotest.(check bool) "dropped tx never gets a receipt" true
    (Chain.tx_receipt c ~tx_id:tx = None);
  (* The dangerous asymmetry: censorship stops the state change but not
     the information leak. *)
  Alcotest.(check (option string))
    "preimage still leaks from the mempool" (Some s.Secret.preimage)
    (Chain.observed_preimage c ~at:1. ~hash:s.Secret.hash);
  Alcotest.(check int) "drop counted" 1 (Chain.fault_stats c).Chain.dropped;
  check_float "no state change" 5. (Chain.balance c ~account:"a")

let test_fault_delay_bounded_and_deterministic () =
  let faults =
    Faults.create
      ~delay:(Faults.Shifted_exponential { mean = 1.; cap = 3. })
      ()
  in
  let confirm_time () =
    let c = faulty_chain ~seed:11 faults in
    Chain.mint c ~account:"a" ~amount:5.;
    let tx =
      Chain.submit c ~at:0. (Tx.Transfer { from_ = "a"; to_ = "b"; amount = 1. })
    in
    ignore (Chain.advance c ~until:20.);
    match Chain.tx_receipt c ~tx_id:tx with
    | Some r -> r.Chain.time
    | None -> Alcotest.fail "delayed transfer must still confirm"
  in
  let t1 = confirm_time () in
  Alcotest.(check bool) "within [tau, tau + cap]" true (t1 >= 2. && t1 <= 5.);
  check_float "same seed, same lateness" t1 (confirm_time ())

let test_fault_reorg_adds_one_tau () =
  let c = faulty_chain (Faults.create ~reorg_prob:1. ()) in
  Chain.mint c ~account:"a" ~amount:5.;
  let tx =
    Chain.submit c ~at:1. (Tx.Transfer { from_ = "a"; to_ = "b"; amount = 1. })
  in
  ignore (Chain.advance c ~until:20.);
  (match Chain.tx_receipt c ~tx_id:tx with
  | Some r -> check_float "orphaned then re-mined one block later" 5. r.Chain.time
  | None -> Alcotest.fail "reorged transfer must still confirm");
  Alcotest.(check int) "reorg counted" 1 (Chain.fault_stats c).Chain.reorged

let test_fault_halt_defers_confirmation_and_refund () =
  let c = faulty_chain (Faults.create ~halts:[ (1., 5.); (9., 12.) ] ()) in
  Chain.mint c ~account:"a" ~amount:5.;
  let tx =
    Chain.submit c ~at:0. (Tx.Transfer { from_ = "a"; to_ = "b"; amount = 1. })
  in
  ignore (Chain.advance c ~until:4.9);
  check_float "confirmation held during the halt" 0.
    (Chain.balance c ~account:"b");
  ignore (Chain.advance c ~until:5.);
  check_float "applied at halt end" 1. (Chain.balance c ~account:"b");
  (match Chain.tx_receipt c ~tx_id:tx with
  | Some r -> check_float "receipt shows deferred time" 5. r.Chain.time
  | None -> Alcotest.fail "transfer must confirm");
  (* Auto-refund due at expiry + tau = 9.5 lands in the second window. *)
  let s = Secret.of_preimage "halted" in
  ignore
    (Chain.submit c ~at:5.
       (Tx.Htlc_lock
          { contract_id = "h"; sender = "a"; recipient = "b"; amount = 2.;
            hash = s.Secret.hash; expiry = 7.5 }));
  ignore (Chain.advance c ~until:11.9);
  check_float "refund deferred past the halt" 2.
    (Chain.balance c ~account:"a");
  ignore (Chain.advance c ~until:12.);
  check_float "refunded at halt end" 4. (Chain.balance c ~account:"a");
  Alcotest.(check int) "both deferrals counted" 2
    (Chain.fault_stats c).Chain.halted

let test_fault_seed_replay_identical () =
  let faults =
    Faults.create ~drop_prob:0.3 ~delay_prob:0.7
      ~delay:(Faults.Shifted_exponential { mean = 1.; cap = 4. })
      ~reorg_prob:0.2 ~halts:[ (3., 4.) ] ()
  in
  let play () =
    let c = faulty_chain ~seed:42 faults in
    Chain.mint c ~account:"a" ~amount:50.;
    for i = 0 to 19 do
      ignore
        (Chain.submit c ~at:(float_of_int i)
           (Tx.Transfer { from_ = "a"; to_ = "b"; amount = 1. }))
    done;
    ignore (Chain.advance c ~until:100.);
    List.map
      (fun r -> (r.Chain.time, Chain.describe r, Result.is_ok r.Chain.result))
      (Chain.receipts c)
  in
  Alcotest.(check bool) "same (seed, schedule) replays the same trace" true
    (play () = play ())

(* --- Receipt text ------------------------------------------------------------- *)

(* Receipts are built by concatenation; each must read exactly as the
   [Format "%g"] text it replaced, on every payload and on the floats
   where "%g" is least obvious. *)
let awkward_floats = [ 1e-7; 1e21; 0.1 +. 0.2; -0.; Float.nan; Float.infinity ]

let format_payload : Tx.payload -> string = function
  | Tx.Transfer { from_; to_; amount } ->
    Format.asprintf "transfer %g from %s to %s" amount from_ to_
  | Tx.Htlc_lock { contract_id; sender; recipient; amount; expiry; _ } ->
    Format.asprintf "htlc-lock %s: %g from %s to %s, expires %g" contract_id
      amount sender recipient expiry
  | Tx.Htlc_claim { contract_id; _ } ->
    Format.asprintf "htlc-claim %s (preimage revealed)" contract_id
  | Tx.Htlc_refund { contract_id } ->
    Format.asprintf "htlc-refund %s" contract_id
  | Tx.Escrow_lock { contract_id; owner; counterparty; amount; arbiter; expiry }
    ->
    Format.asprintf "escrow-lock %s: %g from %s to %s, arbiter %s, expires %g"
      contract_id amount owner counterparty arbiter expiry
  | Tx.Escrow_decide { contract_id; by; commit } ->
    Format.asprintf "escrow-decide %s: %s by %s" contract_id
      (if commit then "commit" else "abort")
      by

let test_payload_text () =
  List.iter
    (fun x ->
      let payloads =
        [
          Tx.Transfer { from_ = "a"; to_ = "b"; amount = x };
          Tx.Htlc_lock
            { contract_id = "htlc:a"; sender = "alice"; recipient = "bob";
              amount = x; hash = "h"; expiry = -.x };
          Tx.Htlc_claim { contract_id = "htlc:b"; preimage = "p" };
          Tx.Htlc_refund { contract_id = "htlc:a" };
          Tx.Escrow_lock
            { contract_id = "e"; owner = "a"; counterparty = "b"; amount = x;
              arbiter = "w"; expiry = 3. *. x };
          Tx.Escrow_decide { contract_id = "e"; by = "w"; commit = true };
          Tx.Escrow_decide { contract_id = "e"; by = "w"; commit = false };
        ]
      in
      List.iter
        (fun p ->
          Alcotest.(check string)
            (Format.asprintf "payload at %h" x)
            (format_payload p) (Tx.payload_to_string p))
        payloads)
    awkward_floats

(* The chain's own descriptions: auto-refund and escrow timeout (done
   and no-op), and the error texts. *)
let test_receipt_text () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:10.;
  let amount = 0.1 +. 0.2 in
  let lock id expiry =
    Tx.Htlc_lock
      { contract_id = id; sender = "a"; recipient = "b"; amount; hash = "h";
        expiry }
  in
  ignore (Chain.submit c ~at:0. (lock "h1" 5.));
  ignore (Chain.submit c ~at:0. (lock "h2" 5.));
  ignore (Chain.submit c ~at:1. (Tx.Htlc_refund { contract_id = "h2" }));
  ignore
    (Chain.submit c ~at:1.
       (Tx.Escrow_lock
          { contract_id = "e1"; owner = "a"; counterparty = "b"; amount = 1e-7;
            arbiter = "w"; expiry = 6. }));
  ignore
    (Chain.submit c ~at:1.
       (Tx.Escrow_lock
          { contract_id = "e2"; owner = "a"; counterparty = "b"; amount = 2.5;
            arbiter = "w"; expiry = 6. }));
  ignore
    (Chain.submit c ~at:4.
       (Tx.Escrow_decide { contract_id = "e2"; by = "w"; commit = false }));
  ignore
    (Chain.submit c ~at:4.
       (Tx.Htlc_claim { contract_id = "nope"; preimage = "x" }));
  ignore
    (Chain.submit c ~at:4.
       (Tx.Transfer { from_ = "z"; to_ = "b"; amount = 1e21 }));
  ignore (Chain.advance c ~until:20.);
  let texts =
    List.map
      (fun (r : Chain.receipt) ->
        match r.Chain.result with
        | Ok () -> Chain.describe r
        | Error e -> Chain.describe r ^ " => " ^ e)
      (Chain.receipts c)
  in
  let h1 = lock "h1" 5. and h2 = lock "h2" 5. in
  let expected =
    [
      format_payload h1;
      format_payload h2;
      format_payload (Tx.Htlc_refund { contract_id = "h2" })
      ^ " => time lock not yet expired";
      Format.asprintf "escrow-lock %s: %g from %s to %s, arbiter %s, expires %g"
        "e1" 1e-7 "a" "b" "w" 6.;
      Format.asprintf "escrow-lock %s: %g from %s to %s, arbiter %s, expires %g"
        "e2" 2.5 "a" "b" "w" 6.;
      Format.asprintf "escrow-decide %s: %s by %s" "e2" "abort" "w";
      "htlc-claim nope (preimage revealed) => "
      ^ Format.asprintf "unknown contract %s" "nope";
      format_payload (Tx.Transfer { from_ = "z"; to_ = "b"; amount = 1e21 })
      ^ " => "
      ^ Format.asprintf "insufficient funds: have %g, need %g" 0. 1e21;
      Format.asprintf "auto-refund %s: %g returned to %s" "h1" amount "a";
      Format.asprintf "auto-refund %s: %g returned to %s" "h2" amount "a";
      Format.asprintf "escrow-timeout %s: %g returned to %s" "e1" 1e-7 "a";
      Format.asprintf "escrow-timeout %s (noop)" "e2";
    ]
  in
  Alcotest.(check (list string)) "receipt texts" expected texts

(* --- Escrow (AC3 witness contracts) ------------------------------------------ *)

let make_escrow () =
  Escrow.create ~contract_id:"e" ~owner:"a" ~counterparty:"b" ~amount:3.
    ~arbiter:"w" ~expiry:10. ~created_at:0.

let test_escrow_commit () =
  let e = make_escrow () in
  match Escrow.decide e ~by:"w" ~commit:true ~at:5. with
  | Ok e' -> (
    Alcotest.(check bool) "settled" false (Escrow.is_held e');
    match Escrow.decide e' ~by:"w" ~commit:false ~at:6. with
    | Error "already committed" -> ()
    | _ -> Alcotest.fail "double decision must fail")
  | Error e -> Alcotest.failf "commit failed: %s" e

let test_escrow_rejects_non_arbiter () =
  let e = make_escrow () in
  match Escrow.decide e ~by:"mallory" ~commit:true ~at:5. with
  | Error "not the arbiter" -> ()
  | _ -> Alcotest.fail "only the arbiter may decide"

let test_escrow_expiry_rules () =
  let e = make_escrow () in
  (match Escrow.decide e ~by:"w" ~commit:true ~at:10.5 with
  | Error "arbitration window expired" -> ()
  | _ -> Alcotest.fail "late verdicts must fail");
  (match Escrow.try_timeout e ~at:9. with
  | Error "not yet expired" -> ()
  | _ -> Alcotest.fail "early timeout must fail");
  match Escrow.try_timeout e ~at:10. with
  | Ok e' -> Alcotest.(check string) "aborted" "aborted@10"
      (Escrow.state_to_string e'.Escrow.state)
  | Error e -> Alcotest.failf "timeout failed: %s" e

let test_chain_escrow_commit_flow () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:5.;
  ignore
    (Chain.submit c ~at:0.
       (Tx.Escrow_lock
          { contract_id = "e"; owner = "a"; counterparty = "b"; amount = 3.;
            arbiter = "w"; expiry = 10. }));
  ignore
    (Chain.submit c ~at:3.
       (Tx.Escrow_decide { contract_id = "e"; by = "w"; commit = true }));
  ignore (Chain.advance c ~until:6.);
  check_float "counterparty paid" 3. (Chain.balance c ~account:"b");
  check_float "owner keeps the rest" 2. (Chain.balance c ~account:"a");
  check_float "supply conserved" 5. (Chain.total_supply c)

let test_chain_escrow_timeout_refunds () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:5.;
  ignore
    (Chain.submit c ~at:0.
       (Tx.Escrow_lock
          { contract_id = "e"; owner = "a"; counterparty = "b"; amount = 3.;
            arbiter = "w"; expiry = 6. }));
  (* Nobody decides: funds return at expiry + tau = 8. *)
  ignore (Chain.advance c ~until:7.9);
  check_float "still escrowed" 2. (Chain.balance c ~account:"a");
  ignore (Chain.advance c ~until:8.);
  check_float "refunded" 5. (Chain.balance c ~account:"a");
  check_float "counterparty unpaid" 0. (Chain.balance c ~account:"b")

let test_chain_escrow_fake_arbiter_rejected () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:5.;
  ignore
    (Chain.submit c ~at:0.
       (Tx.Escrow_lock
          { contract_id = "e"; owner = "a"; counterparty = "b"; amount = 3.;
            arbiter = "w"; expiry = 10. }));
  ignore
    (Chain.submit c ~at:3.
       (Tx.Escrow_decide { contract_id = "e"; by = "b"; commit = true }));
  let receipts = Chain.advance c ~until:6. in
  let decide_receipt = List.nth receipts 1 in
  Alcotest.(check bool) "fake verdict fails" true
    (Result.is_error decide_receipt.Chain.result);
  check_float "no payout" 0. (Chain.balance c ~account:"b")

(* --- Explorer ------------------------------------------------------------------ *)

let test_explorer_blocks_group_by_time () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:10.;
  ignore (Chain.submit c ~at:0. (Tx.Transfer { from_ = "a"; to_ = "b"; amount = 1. }));
  ignore (Chain.submit c ~at:0. (Tx.Transfer { from_ = "a"; to_ = "c"; amount = 1. }));
  ignore (Chain.submit c ~at:1. (Tx.Transfer { from_ = "a"; to_ = "d"; amount = 1. }));
  ignore (Chain.advance c ~until:10.);
  let blocks = Explorer.blocks c in
  Alcotest.(check int) "two blocks" 2 (List.length blocks);
  let first = List.hd blocks in
  Alcotest.(check int) "two events in the first" 2
    (List.length first.Explorer.events);
  check_float "first confirms at tau" 2. first.Explorer.time

let test_explorer_balances_sorted_nonzero () =
  let c = fresh_chain () in
  Chain.mint c ~account:"whale" ~amount:100.;
  Chain.mint c ~account:"shrimp" ~amount:1.;
  Chain.mint c ~account:"empty" ~amount:0.;
  match Explorer.balances c with
  | [ (a, va); (b, vb) ] ->
    Alcotest.(check string) "largest first" "whale" a;
    check_float "whale balance" 100. va;
    Alcotest.(check string) "then shrimp" "shrimp" b;
    check_float "shrimp balance" 1. vb
  | other -> Alcotest.failf "expected 2 balances, got %d" (List.length other)

let test_explorer_render_mentions_chain () =
  let c = fresh_chain () in
  Chain.mint c ~account:"a" ~amount:1.;
  let text = Explorer.render c in
  Alcotest.(check bool) "has header" true
    (String.length text > 0 && String.sub text 0 10 = "chain test")

(* --- Oracle ---------------------------------------------------------------------- *)

let test_oracle_flow () =
  let c = fresh_chain () in
  Chain.mint c ~account:"alice" ~amount:2.;
  Chain.mint c ~account:"bob" ~amount:2.;
  let o = Oracle.create c ~alice:"alice" ~bob:"bob" ~q:1.5 in
  Oracle.deposit o ~at:0.;
  check_float "alice charged" 0.5 (Chain.balance c ~account:"alice");
  check_float "vault holds 2q" 3.
    (Chain.balance c ~account:(Oracle.vault_account o));
  Oracle.release o ~at:1. ~to_:"bob" ~amount:3.;
  ignore (Chain.advance c ~until:4.);
  check_float "bob paid both deposits" 3.5 (Chain.balance c ~account:"bob");
  match Oracle.release o ~at:5. ~to_:"bob" ~amount:0.1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overdraw must be rejected"

(* A release is the contract's payout, not a transaction: a chain that
   drops every transaction still credits it, a halt window defers it,
   and its receipt names the vault. *)
let test_oracle_release_is_a_payout () =
  let c =
    faulty_chain (Faults.create ~drop_prob:1. ~halts:[ (2.5, 5.) ] ())
  in
  Chain.mint c ~account:"alice" ~amount:1.;
  Chain.mint c ~account:"bob" ~amount:1.;
  let o = Oracle.create c ~alice:"alice" ~bob:"bob" ~q:1. in
  Oracle.deposit o ~at:0.;
  Oracle.release o ~at:1. ~to_:"bob" ~amount:2.;
  ignore (Chain.advance c ~until:4.9);
  check_float "deferred by the halt" 0. (Chain.balance c ~account:"bob");
  match Chain.advance c ~until:5. with
  | [ r ] ->
    check_float "credited at the halt's end" 2.
      (Chain.balance c ~account:"bob");
    check_float "vault empty" 0.
      (Chain.balance c ~account:(Oracle.vault_account o));
    Alcotest.(check bool) "no transaction" true (r.Chain.tx_id = None);
    Alcotest.(check string) "receipt text"
      ("payout 2 from " ^ Oracle.vault_account o ^ " to bob")
      (Chain.describe r);
    Alcotest.(check int) "one halt deferral" 1
      (Chain.fault_stats c).Chain.halted;
    Alcotest.(check int) "nothing dropped" 0
      (Chain.fault_stats c).Chain.dropped
  | rs -> Alcotest.failf "expected one receipt at 5 h, got %d" (List.length rs)

let test_oracle_double_deposit () =
  let c = fresh_chain () in
  Chain.mint c ~account:"alice" ~amount:2.;
  Chain.mint c ~account:"bob" ~amount:2.;
  let o = Oracle.create c ~alice:"alice" ~bob:"bob" ~q:1. in
  Oracle.deposit o ~at:0.;
  match Oracle.deposit o ~at:1. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double deposit must fail"

(* --- properties --------------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"heap drains sorted" ~count:200
      (list_of_size (Gen.int_range 0 50) int)
      (fun xs ->
        let h = Heap.create ~cmp:compare in
        List.iter (Heap.push h) xs;
        drain h = List.sort compare xs);
    Test.make ~name:"sha256 deterministic and 32 bytes" ~count:200
      string
      (fun s ->
        let d1 = Sha256.digest s and d2 = Sha256.digest s in
        String.equal d1 d2 && String.length d1 = 32);
    Test.make ~name:"HTLC/escrow machine safe under random ops" ~count:80
      (int_range 0 1_000_000)
      (fun seed ->
        let rng = Numerics.Rng.create ~seed () in
        let c = fresh_chain () in
        Chain.mint c ~account:"a" ~amount:50.;
        Chain.mint c ~account:"b" ~amount:50.;
        let secret = Secret.of_preimage "fuzz" in
        let t = ref 0. in
        for i = 0 to 30 do
          t := !t +. Numerics.Rng.uniform rng;
          let cid = Printf.sprintf "c%d" (i mod 5) in
          let payload =
            match Numerics.Rng.int_below rng 6 with
            | 0 ->
              Tx.Htlc_lock
                { contract_id = cid; sender = "a"; recipient = "b";
                  amount = Numerics.Rng.uniform rng *. 5.;
                  hash = secret.Secret.hash;
                  expiry = !t +. 1. +. (Numerics.Rng.uniform rng *. 10.) }
            | 1 -> Tx.Htlc_claim { contract_id = cid; preimage = secret.Secret.preimage }
            | 2 -> Tx.Htlc_claim { contract_id = cid; preimage = "wrong" }
            | 3 -> Tx.Htlc_refund { contract_id = cid }
            | 4 ->
              Tx.Escrow_lock
                { contract_id = "e" ^ cid; owner = "b"; counterparty = "a";
                  amount = Numerics.Rng.uniform rng *. 5.; arbiter = "w";
                  expiry = !t +. 1. +. (Numerics.Rng.uniform rng *. 10.) }
            | _ ->
              Tx.Escrow_decide
                { contract_id = "e" ^ cid; by = "w";
                  commit = Numerics.Rng.uniform rng < 0.5 }
          in
          ignore (Chain.submit c ~at:!t payload)
        done;
        ignore (Chain.advance c ~until:(!t +. 50.));
        (* Safety invariants: conservation, no negative balances, every
           contract settled (nothing stuck past all expiries). *)
        abs_float (Chain.total_supply c -. 100.) < 1e-6
        && List.for_all (fun (_, v) -> v >= -1e-9) (Chain.accounts c)
        && List.for_all
             (fun (account, v) ->
               not (String.length account >= 7
                    && String.sub account 0 7 = "escrow:")
               || abs_float v < 1e-9)
             (Chain.accounts c));
    Test.make ~name:"conservation and eventual refunds under random faults"
      ~count:60 (int_range 0 1_000_000)
      (fun seed ->
        let rng = Numerics.Rng.create ~seed () in
        let u () = Numerics.Rng.uniform rng in
        let halts =
          if u () < 0.5 then
            let h0 = 2. +. (u () *. 6.) in
            [ (h0, h0 +. (u () *. 4.)) ]
          else []
        in
        let faults =
          Faults.create ~drop_prob:(u () *. 0.5) ~delay_prob:(u ())
            ~delay:(Faults.Shifted_exponential { mean = 0.2 +. u (); cap = 4. })
            ~reorg_prob:(u () *. 0.3) ~halts ()
        in
        let c = faulty_chain ~seed faults in
        Chain.mint c ~account:"a" ~amount:50.;
        Chain.mint c ~account:"b" ~amount:50.;
        let secret = Secret.of_preimage "chaos" in
        let t = ref 0. in
        for i = 0 to 30 do
          t := !t +. u ();
          let cid = Printf.sprintf "c%d" (i mod 5) in
          let payload =
            match Numerics.Rng.int_below rng 4 with
            | 0 ->
              Tx.Htlc_lock
                { contract_id = cid; sender = "a"; recipient = "b";
                  amount = u () *. 5.; hash = secret.Secret.hash;
                  expiry = !t +. 1. +. (u () *. 10.) }
            | 1 ->
              Tx.Htlc_claim
                { contract_id = cid; preimage = secret.Secret.preimage }
            | 2 -> Tx.Htlc_refund { contract_id = cid }
            | _ -> Tx.Transfer { from_ = "b"; to_ = "a"; amount = u () }
          in
          ignore (Chain.submit c ~at:!t payload)
        done;
        (* Past every expiry (<= t + 11) plus refund lag and the fault
           horizon, every surviving lock must have auto-refunded: faults
           may defer settlement but never strand escrowed funds. *)
        ignore
          (Chain.advance c
             ~until:(!t +. 20. +. Faults.horizon_margin faults ~tau:2.));
        abs_float (Chain.total_supply c -. 100.) < 1e-6
        && List.for_all (fun (_, v) -> v >= -1e-9) (Chain.accounts c)
        && List.for_all
             (fun (account, v) ->
               not (String.length account >= 7
                    && String.sub account 0 7 = "escrow:")
               || abs_float v < 1e-9)
             (Chain.accounts c));
    Test.make ~name:"chain conserves supply" ~count:100
      (pair (int_range 0 1000) (list_of_size (Gen.int_range 0 10) (pair small_nat small_nat)))
      (fun (seed, ops) ->
        ignore seed;
        let c = fresh_chain () in
        Chain.mint c ~account:"a" ~amount:100.;
        Chain.mint c ~account:"b" ~amount:100.;
        List.iteri
          (fun i (x, y) ->
            let from_ = if x mod 2 = 0 then "a" else "b" in
            let to_ = if y mod 2 = 0 then "b" else "a" in
            ignore
              (Chain.submit c ~at:(float_of_int i)
                 (Tx.Transfer { from_; to_; amount = float_of_int (x mod 7) })))
          ops;
        ignore (Chain.advance c ~until:1000.);
        abs_float (Chain.total_supply c -. 200.) < 1e-9);
  ]

let () =
  let props = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "chainsim"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million-a vector" `Slow test_sha256_long_input;
          Alcotest.test_case "padding boundaries" `Quick
            test_sha256_block_boundaries;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "empty behaviour" `Quick test_heap_empty;
        ] );
      ( "secret",
        [
          Alcotest.test_case "roundtrip" `Quick test_secret_roundtrip;
          Alcotest.test_case "fresh secrets distinct" `Quick
            test_secret_distinct;
          Alcotest.test_case "memo soundness" `Quick test_secret_memo_soundness;
          Alcotest.test_case "memo across four domains" `Quick
            test_secret_memo_domains;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "transfer" `Quick test_ledger_transfer;
          Alcotest.test_case "insufficient funds" `Quick
            test_ledger_insufficient;
        ] );
      ( "htlc",
        [
          Alcotest.test_case "claim ok" `Quick test_htlc_claim_ok;
          Alcotest.test_case "late claim rejected" `Quick test_htlc_claim_late;
          Alcotest.test_case "bad preimage rejected" `Quick
            test_htlc_claim_bad_preimage;
          Alcotest.test_case "refund rules" `Quick test_htlc_refund_rules;
          Alcotest.test_case "no double claim" `Quick test_htlc_no_double_claim;
        ] );
      ( "chain",
        [
          Alcotest.test_case "confirmation delay" `Quick
            test_chain_confirmation_delay;
          Alcotest.test_case "FIFO at equal times" `Quick
            test_chain_event_order_fifo;
          Alcotest.test_case "HTLC lifecycle" `Quick test_chain_htlc_lifecycle;
          Alcotest.test_case "auto-refund timing" `Quick
            test_chain_auto_refund_timing;
          Alcotest.test_case "claim at expiry boundary" `Quick
            test_chain_claim_beats_expiry_boundary;
          Alcotest.test_case "mempool visibility (eps)" `Quick
            test_chain_mempool_visibility;
          Alcotest.test_case "rejects past submissions" `Quick
            test_chain_rejects_past_submission;
          Alcotest.test_case "duplicate contract rejected" `Quick
            test_chain_duplicate_contract;
          Alcotest.test_case "eps < tau enforced" `Quick
            test_chain_mempool_delay_constraint;
        ] );
      ( "receipts",
        [
          Alcotest.test_case "payloads match Format %g" `Quick
            test_payload_text;
          Alcotest.test_case "chain descriptions match Format %g" `Quick
            test_receipt_text;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop keeps mempool visibility" `Quick
            test_fault_drop_keeps_mempool_visibility;
          Alcotest.test_case "delay bounded and deterministic" `Quick
            test_fault_delay_bounded_and_deterministic;
          Alcotest.test_case "reorg adds one tau" `Quick
            test_fault_reorg_adds_one_tau;
          Alcotest.test_case "halt defers confirmation and refund" `Quick
            test_fault_halt_defers_confirmation_and_refund;
          Alcotest.test_case "seed replay identical" `Quick
            test_fault_seed_replay_identical;
        ] );
      ( "escrow",
        [
          Alcotest.test_case "commit and no double decision" `Quick
            test_escrow_commit;
          Alcotest.test_case "only the arbiter decides" `Quick
            test_escrow_rejects_non_arbiter;
          Alcotest.test_case "expiry rules" `Quick test_escrow_expiry_rules;
          Alcotest.test_case "on-chain commit flow" `Quick
            test_chain_escrow_commit_flow;
          Alcotest.test_case "timeout refunds" `Quick
            test_chain_escrow_timeout_refunds;
          Alcotest.test_case "fake arbiter rejected" `Quick
            test_chain_escrow_fake_arbiter_rejected;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "blocks group by time" `Quick
            test_explorer_blocks_group_by_time;
          Alcotest.test_case "balances sorted nonzero" `Quick
            test_explorer_balances_sorted_nonzero;
          Alcotest.test_case "render header" `Quick
            test_explorer_render_mentions_chain;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "deposit/release flow" `Quick test_oracle_flow;
          Alcotest.test_case "release is a payout" `Quick
            test_oracle_release_is_a_payout;
          Alcotest.test_case "double deposit rejected" `Quick
            test_oracle_double_deposit;
        ] );
      ("properties", props);
    ]
