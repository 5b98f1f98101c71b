open Numerics
open Stochastic

type stance = Faithful | Opportunist

type ended = Horizon | Defection of { by : string; round : int }

type result = {
  rounds_completed : int;
  alice_total : float;
  bob_total : float;
  ended : ended;
}

(* An opportunist still values completion a little (fees saved, venue
   ratings) but far less than a relationship-minded trader. *)
let alpha_of (p : Params.t) = function
  | Faithful -> p.Params.alice.alpha
  | Opportunist -> 0.1

(* Reference thresholds at spot = p0; by degree-one homogeneity the
   whole decision geometry scales linearly with the spot, so membership
   tests normalise prices back to the reference spot. *)
type thresholds = {
  rate_ratio : float;  (** Quoted [p_star / spot]. *)
  k3_ref : float;  (** Alice's reveal cutoff at the reference spot. *)
  set_ref : Intervals.t;  (** Bob's continuation region, reference spot. *)
}

let solve_thresholds (p : Params.t) ~alice ~bob ~q =
  let faithful_quote =
    match Success.maximize p with
    | Some best -> best.Success.p_star /. p.Params.p0
    | None -> 1.
  in
  let stanced =
    Params.with_alpha_alice
      (Params.with_alpha_bob p (alpha_of p bob))
      (alpha_of p alice)
  in
  let p_star = faithful_quote *. p.Params.p0 in
  let k3_ref, set_ref =
    if q > 0. then begin
      let c = Collateral.symmetric stanced ~q in
      (Collateral.p_t3_low c ~p_star, Collateral.cont_set_t2 c ~p_star)
    end
    else (Cutoff.p_t3_low stanced ~p_star, Cutoff.p_t2_band stanced ~p_star)
  in
  { rate_ratio = faithful_quote; k3_ref; set_ref }

let run_with_thresholds ~seed ~rounds ~gap_hours (p : Params.t) ~alice ~bob th =
  let gbm = Params.gbm p in
  let tl = Timeline.ideal p in
  let rng = Rng.create ~seed () in
  let spot = ref p.Params.p0 in
  let alice_total = ref 0. and bob_total = ref 0. in
  let da h = exp (-.p.Params.alice.r *. h) in
  let db h = exp (-.p.Params.bob.r *. h) in
  let alpha_a = alpha_of p alice and alpha_b = alpha_of p bob in
  let outcome = ref Horizon in
  let completed = ref 0 in
  (* Normalise a live price back to the reference spot's scale. *)
  let normalised price = price *. p.Params.p0 /. !spot in
  (try
     for round = 0 to rounds - 1 do
       let t0 = float_of_int round *. gap_hours in
       let p_star = th.rate_ratio *. !spot in
       let p_t2 = Gbm.sample rng gbm ~p0:!spot ~tau:p.Params.tau_a in
       if not (Intervals.contains th.set_ref (normalised p_t2)) then begin
         (* Bob walks: Alice refunded at t8; Token_b kept by Bob. *)
         alice_total := !alice_total +. (p_star *. da (tl.Timeline.t8 +. t0));
         bob_total := !bob_total +. (p_t2 *. db (tl.Timeline.t2 +. t0));
         outcome := Defection { by = "bob"; round };
         raise Exit
       end;
       let p_t3 = Gbm.sample rng gbm ~p0:p_t2 ~tau:p.Params.tau_b in
       if normalised p_t3 <= th.k3_ref then begin
         let p_t7 = Gbm.sample rng gbm ~p0:p_t3 ~tau:(2. *. p.Params.tau_b) in
         alice_total := !alice_total +. (p_star *. da (tl.Timeline.t8 +. t0));
         bob_total := !bob_total +. (p_t7 *. db (tl.Timeline.t7 +. t0));
         outcome := Defection { by = "alice"; round };
         raise Exit
       end;
       (* Success: the pair keeps trading. *)
       let p_t5 = Gbm.sample rng gbm ~p0:p_t3 ~tau:p.Params.tau_b in
       alice_total :=
         !alice_total +. ((1. +. alpha_a) *. p_t5 *. da (tl.Timeline.t5 +. t0));
       bob_total :=
         !bob_total +. ((1. +. alpha_b) *. p_star *. db (tl.Timeline.t6 +. t0));
       incr completed;
       (* Spot at the next round start. *)
       let remaining = gap_hours -. p.Params.tau_a -. p.Params.tau_b in
       spot :=
         if remaining > 0. then Gbm.sample rng gbm ~p0:p_t3 ~tau:remaining
         else p_t3
     done
   with Exit -> ());
  {
    rounds_completed = !completed;
    alice_total = !alice_total;
    bob_total = !bob_total;
    ended = !outcome;
  }

let check_gap (p : Params.t) gap_hours =
  if gap_hours < p.Params.tau_a +. p.Params.tau_b then
    invalid_arg "Relationship.run: gap shorter than a swap's action phase"

let run ?(seed = 0xbeef) ?(rounds = 100) ?(gap_hours = 24.) ?(q = 0.)
    (p : Params.t) ~alice ~bob =
  check_gap p gap_hours;
  let th = solve_thresholds p ~alice ~bob ~q in
  run_with_thresholds ~seed ~rounds ~gap_hours p ~alice ~bob th

let mean_totals ?(relationships = 200) ?(seed = 0xbeef) ?(rounds = 100)
    ?(gap_hours = 24.) ?(q = 0.) p ~alice ~bob =
  check_gap p gap_hours;
  (* The thresholds are deterministic: solve once, reuse per trial. *)
  let th = solve_thresholds p ~alice ~bob ~q in
  let rng = Rng.create ~seed () in
  let sum_a = ref 0. and sum_b = ref 0. and sum_r = ref 0 in
  for _ = 1 to relationships do
    let seed = Int64.to_int (Int64.logand (Rng.bits64 rng) 0xFFFFFFL) in
    let r = run_with_thresholds ~seed ~rounds ~gap_hours p ~alice ~bob th in
    sum_a := !sum_a +. r.alice_total;
    sum_b := !sum_b +. r.bob_total;
    sum_r := !sum_r + r.rounds_completed
  done;
  let n = float_of_int relationships in
  (!sum_a /. n, !sum_b /. n, float_of_int !sum_r /. n)
