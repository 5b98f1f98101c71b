open Numerics

type t = { preimage : string; hash : string }

(* A one-entry memo of the last digest each domain computed.  A swap
   hashes its preimage when the secret is made and again at every claim
   and mempool check; the memo turns those repeats into one string
   comparison.  Sound because strings are immutable and a hit requires
   the whole preimage to be equal, so the memo can only return
   [Sha256.digest preimage]; domain-local, so no domain sees another's
   entry half written. *)
let memo = Domain.DLS.new_key (fun () -> ("", Sha256.digest ""))

let digest preimage =
  let last, hash = Domain.DLS.get memo in
  if String.equal last preimage then hash
  else begin
    let hash = Sha256.digest preimage in
    Domain.DLS.set memo (preimage, hash);
    hash
  end

let of_preimage preimage = { preimage; hash = digest preimage }

let generate rng =
  let b = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le b (8 * i) (Rng.bits64 rng)
  done;
  of_preimage (Bytes.to_string b)

let verify ~hash ~preimage = String.equal (digest preimage) hash
let hash_hex t = Sha256.hex_of_bytes t.hash
