(* Herlihy's timelock assignment, generalised from the n-party cycle
   to arbitrary well-formed swap digraphs.

   With [d(v)] the leader distance of vertex [v], [D] the maximum
   distance, [tau] the per-chain confirmation time and
   [spacing = eps + slack] the per-level claim stagger:

     lock_time(a)   = d(src a) * tau          (locks confirm level by
                                               level away from the leader)
     lock_phase_end = (D + 1) * tau           (the deepest lock confirmed)
     claim_time(a)  = lock_phase_end + (D - d(src a)) * spacing
     expiry(a)      = claim_time(a) + tau     (tight: the claim confirms
                                               exactly at the expiry)

   Claims therefore start on the arcs feeding the leader (largest
   [d(src)]) and cascade outward; deadlines strictly grow toward the
   leader's own outgoing arcs, which is exactly the staggering the
   2-party analysis needs — a party only ever claims an arc whose
   expiry is later than the arc it just saw claimed.  On an n-cycle
   (D = n-1) this is the closed form lock_phase_end = n tau and
   expiry(j) = (n+1) tau + (n-1-j) eps. *)

type schedule = {
  tau : float;
  eps : float;
  slack : float;
  lock_time : float array;
  claim_time : float array;
  expiry : float array;
  lock_phase_end : float;
  horizon : float;
}

let assign ?(slack = 0.) g ~tau ~eps =
  if not (tau > 0.) then invalid_arg "Timelock.assign: tau must be > 0";
  if eps < 0. then invalid_arg "Timelock.assign: eps must be >= 0";
  if slack < 0. then invalid_arg "Timelock.assign: slack must be >= 0";
  let d_max = Graph.max_depth g in
  let lock_phase_end = float_of_int (d_max + 1) *. tau in
  let spacing = eps +. slack in
  let arcs = Graph.arcs g in
  let lock_time =
    Array.map
      (fun a -> float_of_int (Graph.depth g a.Graph.src) *. tau)
      arcs
  in
  let claim_time =
    Array.map
      (fun a ->
        lock_phase_end
        +. (float_of_int (d_max - Graph.depth g a.Graph.src) *. spacing))
      arcs
  in
  let expiry = Array.map (fun t -> t +. tau) claim_time in
  let latest = Array.fold_left max 0. expiry in
  {
    tau;
    eps;
    slack;
    lock_time;
    claim_time;
    expiry;
    lock_phase_end;
    horizon = latest +. (2. *. tau) +. 1.;
  }

(* The invariants every valid assignment must satisfy ("Herlihy
   order"): locks confirm before the cascade starts, each claim window
   is at least one confirmation long, and expiries are strictly
   decreasing as the sender's leader distance grows — so parties that
   learn the secret later still meet earlier deadlines upstream. *)
let validate g s =
  let arcs = Graph.arcs g in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
  Array.iteri
    (fun i a ->
      let d = Graph.depth g a.Graph.src in
      if s.lock_time.(i) <> float_of_int d *. s.tau then
        fail "arc %d: lock time off the level grid" i;
      if s.claim_time.(i) < s.lock_phase_end then
        fail "arc %d: claim before the lock phase ended" i;
      if s.expiry.(i) < s.claim_time.(i) +. s.tau then
        fail "arc %d: claim window shorter than one confirmation" i)
    arcs;
  (* Across consecutive populated depth levels: min expiry at the
     shallower level must strictly exceed max expiry at the deeper. *)
  let d_max = Graph.max_depth g in
  let min_at = Array.make (d_max + 1) infinity in
  let max_at = Array.make (d_max + 1) neg_infinity in
  Array.iteri
    (fun i a ->
      let d = Graph.depth g a.Graph.src in
      if s.expiry.(i) < min_at.(d) then min_at.(d) <- s.expiry.(i);
      if s.expiry.(i) > max_at.(d) then max_at.(d) <- s.expiry.(i))
    arcs;
  let last_populated = ref None in
  for d = 0 to d_max do
    if min_at.(d) < infinity then begin
      (match !last_populated with
      | Some d' when not (min_at.(d') > max_at.(d)) ->
        fail "expiries must strictly decrease from depth %d to %d" d' d
      | _ -> ());
      last_populated := Some d
    end
  done;
  match !err with None -> Ok () | Some m -> Error m

(* Worst-case griefing exposure: the hours each party's outgoing
   collateral can be held hostage by counterparties who lock but never
   claim — from its lock until the refund at expiry, summed over its
   outgoing arcs. *)
let exposure_hours g s =
  let out = Array.make (Graph.n g) 0. in
  Array.iteri
    (fun i a ->
      out.(a.Graph.src) <-
        out.(a.Graph.src) +. (s.expiry.(i) -. s.lock_time.(i)))
    (Graph.arcs g);
  out
