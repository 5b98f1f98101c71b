(* Tests for the core swap model: parameters, timeline, interval sets,
   utilities (vs direct quadrature of the paper's integrals), cutoffs,
   success rates, the collateral extension and mechanism tuning. *)

open Numerics
open Stochastic

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

let p = Swap.Params.defaults

(* --- Params --------------------------------------------------------------- *)

let test_params_defaults_valid () =
  match Swap.Params.validate p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "defaults invalid: %s" e

let test_params_validation () =
  let cases =
    [
      ("eps_b >= tau_b", { p with Swap.Params.eps_b = 4. });
      ("negative sigma", { p with Swap.Params.sigma = -0.1 });
      ("zero r", Swap.Params.with_r_alice p 0.);
      ("alpha <= -1", Swap.Params.with_alpha_bob p (-1.));
      ("nonpositive p0", Swap.Params.with_p0 p 0.);
    ]
  in
  List.iter
    (fun (label, bad) ->
      match Swap.Params.validate bad with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "expected %s to be invalid" label)
    cases

let test_params_create_rejects () =
  match Swap.Params.create ~eps_b:5. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create must validate"

(* --- Timeline -------------------------------------------------------------- *)

let test_timeline_eq13 () =
  let tl = Swap.Timeline.ideal p in
  let open Swap.Timeline in
  check_float "t1 = t0" tl.t0 tl.t1;
  check_float "t2" 3. tl.t2;
  check_float "t3" 7. tl.t3;
  check_float "t4" 8. tl.t4;
  check_float "t5 = t_b" 11. tl.t5;
  check_float "t6 = t_a" 11. tl.t6;
  check_float "t7" 15. tl.t7;
  check_float "t8" 14. tl.t8

let test_timeline_satisfies_eq12 () =
  match Swap.Timeline.check p (Swap.Timeline.ideal p) with
  | Ok () -> ()
  | Error vs -> Alcotest.failf "violations: %s" (String.concat "; " vs)

let test_timeline_check_catches_violation () =
  let tl = Swap.Timeline.ideal p in
  let broken = { tl with Swap.Timeline.t3 = tl.Swap.Timeline.t2 } in
  match Swap.Timeline.check p broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected Eq. 6 violation"

let test_timeline_offset () =
  let tl = Swap.Timeline.ideal ~start:100. p in
  check_float "start offset" 103. tl.Swap.Timeline.t2

(* --- Intervals -------------------------------------------------------------- *)

let test_intervals_basic () =
  let s =
    Swap.Intervals.of_list
      [ { Swap.Intervals.lo = 1.; hi = 2. }; { Swap.Intervals.lo = 3.; hi = infinity } ]
  in
  Alcotest.(check bool) "contains 1.5" true (Swap.Intervals.contains s 1.5);
  Alcotest.(check bool) "not 2.5" false (Swap.Intervals.contains s 2.5);
  Alcotest.(check bool) "contains 1e9" true (Swap.Intervals.contains s 1e9);
  Alcotest.(check bool) "open at endpoint" false (Swap.Intervals.contains s 2.)

let test_intervals_validation () =
  (match
     Swap.Intervals.of_list
       [ { Swap.Intervals.lo = 1.; hi = 3. }; { Swap.Intervals.lo = 2.; hi = 4. } ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlap must be rejected");
  match Swap.Intervals.of_list [ { Swap.Intervals.lo = 2.; hi = 2. } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "degenerate must be rejected"

let test_intervals_set_ops () =
  let a = Swap.Intervals.of_list [ { Swap.Intervals.lo = 0.; hi = 2. } ] in
  let b = Swap.Intervals.of_list [ { Swap.Intervals.lo = 1.; hi = 3. } ] in
  let i = Swap.Intervals.intersect a b in
  let u = Swap.Intervals.union a b in
  Alcotest.(check string) "intersection" "(1, 2)" (Swap.Intervals.to_string i);
  Alcotest.(check string) "union" "(0, 3)" (Swap.Intervals.to_string u)

let test_intervals_from_signs () =
  (* f > 0 on (1, 2) and (3, inf). *)
  let f x = (x -. 1.) *. (x -. 2.) *. (x -. 3.) in
  let s =
    Swap.Intervals.of_sign_changes ~f ~roots:[ 1.; 2.; 3. ] ~domain_lo:0.
      ~domain_hi:infinity
  in
  Alcotest.(check bool) "1.5 in" true (Swap.Intervals.contains s 1.5);
  Alcotest.(check bool) "2.5 out" false (Swap.Intervals.contains s 2.5);
  Alcotest.(check bool) "10 in" true (Swap.Intervals.contains s 10.);
  Alcotest.(check bool) "0.5 out" false (Swap.Intervals.contains s 0.5)

(* --- Utilities: formulas vs the paper's expressions -------------------------- *)

let test_a_t3_utilities () =
  (* Eq. 14: (1 + alpha) P e^{mu tau_b} e^{-r tau_b}. *)
  check_float ~tol:1e-12 "Eq. 14"
    (1.3 *. 1.7 *. exp (0.002 *. 4.) *. exp (-0.01 *. 4.))
    (Swap.Utility.a_t3_cont p ~p_t3:1.7);
  (* Eq. 16: P* e^{-r (eps_b + 2 tau_a)}. *)
  check_float ~tol:1e-12 "Eq. 16"
    (2. *. exp (-0.01 *. 7.))
    (Swap.Utility.a_t3_stop p ~p_star:2.)

let test_b_t3_utilities () =
  (* Eq. 15: (1 + alpha) P* e^{-r (eps_b + tau_a)}. *)
  check_float ~tol:1e-12 "Eq. 15"
    (1.3 *. 2. *. exp (-0.01 *. 4.))
    (Swap.Utility.b_t3_cont p ~p_star:2.);
  (* Eq. 17: P e^{2 mu tau_b} e^{-2 r tau_b}. *)
  check_float ~tol:1e-12 "Eq. 17"
    (1.7 *. exp (2. *. 0.002 *. 4.) *. exp (-2. *. 0.01 *. 4.))
    (Swap.Utility.b_t3_stop p ~p_t3:1.7)

(* The t2 utilities use closed-form partial expectations; integrate the
   paper's Eq. 20/21 integrands numerically and compare. *)
let test_a_t2_cont_vs_quadrature () =
  let gbm = Swap.Params.gbm p in
  let p_star = 2. in
  let k3 = Swap.Cutoff.p_t3_low p ~p_star in
  List.iter
    (fun p_t2 ->
      let integral =
        Oracle.Quad.semi_infinite ~n:800
          (fun x ->
            Gbm.pdf gbm ~x ~p0:p_t2 ~tau:p.Swap.Params.tau_b
            *. Swap.Utility.a_t3_cont p ~p_t3:x)
          ~a:k3
      in
      let expected =
        (integral
        +. Gbm.cdf gbm ~x:k3 ~p0:p_t2 ~tau:p.Swap.Params.tau_b
           *. Swap.Utility.a_t3_stop p ~p_star)
        *. exp (-.p.Swap.Params.alice.r *. p.Swap.Params.tau_b)
      in
      check_float ~tol:1e-5
        (Printf.sprintf "Eq. 20 at P_t2=%g" p_t2)
        expected
        (Swap.Utility.a_t2_cont p ~p_star ~k3 ~p_t2))
    [ 1.2; 1.8; 2.4 ]

let test_b_t2_cont_vs_quadrature () =
  let gbm = Swap.Params.gbm p in
  let p_star = 2. in
  let k3 = Swap.Cutoff.p_t3_low p ~p_star in
  List.iter
    (fun p_t2 ->
      let stop_integral =
        Integrate.gauss_legendre ~n:400
          (fun x ->
            Gbm.pdf gbm ~x ~p0:p_t2 ~tau:p.Swap.Params.tau_b
            *. Swap.Utility.b_t3_stop p ~p_t3:x)
          ~a:1e-9 ~b:k3
      in
      let expected =
        (Gbm.sf gbm ~x:k3 ~p0:p_t2 ~tau:p.Swap.Params.tau_b
         *. Swap.Utility.b_t3_cont p ~p_star
        +. stop_integral)
        *. exp (-.p.Swap.Params.bob.r *. p.Swap.Params.tau_b)
      in
      check_float ~tol:1e-5
        (Printf.sprintf "Eq. 21 at P_t2=%g" p_t2)
        expected
        (Swap.Utility.b_t2_cont p ~p_star ~k3 ~p_t2))
    [ 1.2; 1.8; 2.4 ]

(* --- Cutoffs ------------------------------------------------------------------ *)

let test_p_t3_low_closed_form () =
  (* Eq. 18 with defaults at P* = 2. *)
  let expected =
    exp (((0.01 -. 0.002) *. 4.) -. (0.01 *. 7.)) *. 2. /. 1.3
  in
  check_float ~tol:1e-12 "Eq. 18" expected (Swap.Cutoff.p_t3_low p ~p_star:2.);
  (* Increasing in P*. *)
  if Swap.Cutoff.p_t3_low p ~p_star:3. <= Swap.Cutoff.p_t3_low p ~p_star:2. then
    Alcotest.fail "cutoff must increase with P*"

let test_p_t2_band_roots () =
  let p_star = 2. in
  let k3 = Swap.Cutoff.p_t3_low p ~p_star in
  match Swap.Cutoff.p_t2_band_endpoints p ~p_star with
  | None -> Alcotest.fail "expected a nonempty band"
  | Some (lo, hi) ->
    (* The endpoints are exactly Bob's indifference points. *)
    let g x =
      Swap.Utility.b_t2_cont p ~p_star ~k3 ~p_t2:x -. Swap.Utility.b_t2_stop ~p_t2:x
    in
    check_float ~tol:1e-6 "g(lo) = 0" 0. (g lo);
    check_float ~tol:1e-6 "g(hi) = 0" 0. (g hi);
    if g (0.5 *. (lo +. hi)) <= 0. then
      Alcotest.fail "g must be positive inside the band";
    if not (lo < 2. && 2. < hi) then
      Alcotest.fail "spot price should be inside the band at P* = 2"

let test_p_t2_band_empty_for_tiny_alpha () =
  (* Section III-E3: when alpha_B is small enough Bob never continues. *)
  let p' = Swap.Params.with_alpha_bob p 0.001 in
  match Swap.Cutoff.p_t2_band_endpoints p' ~p_star:2. with
  | None -> ()
  | Some (lo, hi) ->
    (* A nonempty band can survive at small alpha if drift compensates;
       with default mu it should be very narrow or absent. *)
    if hi -. lo > 0.5 then
      Alcotest.failf "band unexpectedly wide: (%g, %g)" lo hi

let test_eq29_feasible_band () =
  match Swap.Cutoff.p_star_band_endpoints p with
  | None -> Alcotest.fail "feasible band must exist under defaults"
  | Some (lo, hi) ->
    (* Paper reports (1.5, 2.5) at two significant digits. *)
    check_float ~tol:0.1 "P*_low ~ 1.5" 1.5 lo;
    check_float ~tol:0.1 "P*_high ~ 2.5" 2.5 hi

let test_feasible_band_widens_with_alpha () =
  let band alpha =
    let p' =
      Swap.Params.with_alpha_alice (Swap.Params.with_alpha_bob p alpha) alpha
    in
    Swap.Cutoff.p_star_band_endpoints p'
  in
  match (band 0.15, band 0.45) with
  | Some (lo1, hi1), Some (lo2, hi2) ->
    if hi2 -. lo2 <= hi1 -. lo1 then
      Alcotest.fail "higher alpha must widen the feasible band"
  | None, Some _ -> () (* low alpha infeasible is also consistent *)
  | _, None -> Alcotest.fail "high alpha should remain feasible"

let test_high_r_kills_feasibility () =
  let p' = Swap.Params.with_r_alice (Swap.Params.with_r_bob p 0.2) 0.2 in
  match Swap.Cutoff.p_star_band_endpoints p' with
  | None -> ()
  | Some (lo, hi) ->
    if hi -. lo > 0.3 then
      Alcotest.failf "impatient agents should barely trade: (%g, %g)" lo hi

let test_cutoff_memo_cache_hits () =
  (* Sweeps evaluate the same (params, p_star) repeatedly; the second
     evaluation must come from the cache and be identical. *)
  Swap.Cutoff.clear_caches ();
  let band1 = Swap.Cutoff.p_t2_band p ~p_star:1.93 in
  let hits0, misses0 = Swap.Cutoff.cache_stats () in
  let band2 = Swap.Cutoff.p_t2_band p ~p_star:1.93 in
  let hits1, misses1 = Swap.Cutoff.cache_stats () in
  Alcotest.(check bool) "band identical" true
    (Swap.Intervals.intervals band1 = Swap.Intervals.intervals band2);
  Alcotest.(check int) "repeat band solve is a pure hit" (hits0 + 1) hits1;
  Alcotest.(check int) "no extra misses" misses0 misses1;
  let k3 = Swap.Cutoff.p_t3_low p ~p_star:1.93 in
  let hits2, _ = Swap.Cutoff.cache_stats () in
  let k3' = Swap.Cutoff.p_t3_low p ~p_star:1.93 in
  let hits3, _ = Swap.Cutoff.cache_stats () in
  check_float "memoized t3 cutoff identical" k3 k3';
  Alcotest.(check int) "t3 repeat is a hit" (hits2 + 1) hits3;
  (* a cleared cache recomputes the same value *)
  Swap.Cutoff.clear_caches ();
  check_float "recomputed t3 cutoff identical" k3
    (Swap.Cutoff.p_t3_low p ~p_star:1.93)

(* --- Success rate --------------------------------------------------------------- *)

let test_sr_bounds_and_interior_max () =
  let sr = Swap.Success.analytic p in
  List.iter
    (fun p_star ->
      let v = sr ~p_star in
      if v < 0. || v > 1. then Alcotest.failf "SR out of range: %g" v)
    [ 1.6; 1.8; 2.0; 2.2; 2.4 ];
  (* Concavity in the paper's sense: the max is interior. *)
  let v_lo = sr ~p_star:1.6 and v_mid = sr ~p_star:2.0 and v_hi = sr ~p_star:2.45 in
  if not (v_mid > v_lo && v_mid > v_hi) then
    Alcotest.failf "SR not peaked in the interior: %g %g %g" v_lo v_mid v_hi

let test_sr_increases_with_alpha () =
  (* Both agents' premia set to alpha. *)
  let sr alpha =
    let p = Swap.Params.with_alpha_alice (Swap.Params.with_alpha_bob p alpha) alpha in
    Swap.Success.analytic p ~p_star:2.
  in
  let srs = Array.map sr [| 0.15; 0.3; 0.5 |] in
  if not (srs.(0) < srs.(1) && srs.(1) < srs.(2)) then
    Alcotest.fail "SR must increase with alpha"

let test_sr_decreases_with_volatility () =
  let sr sigma =
    match Swap.Success.maximize (Swap.Params.with_sigma p sigma) with
    | Some { Swap.Success.sr; _ } -> sr
    | None -> 0.
  in
  let s1 = sr 0.05 and s2 = sr 0.1 and s3 = sr 0.15 in
  if not (s1 > s2 && s2 > s3) then
    Alcotest.failf "max SR must fall with volatility: %g %g %g" s1 s2 s3

let test_sr_increases_with_drift () =
  let v mu = Swap.Success.analytic (Swap.Params.with_mu p mu) ~p_star:2. in
  if not (v 0.01 > v 0. && v 0. > v (-0.01)) then
    Alcotest.fail "SR must increase with drift"

let test_sr_improves_with_faster_chains () =
  let best p' =
    match Swap.Success.maximize p' with
    | Some { Swap.Success.sr; _ } -> sr
    | None -> 0.
  in
  let fast = best (Swap.Params.with_tau_a (Swap.Params.with_tau_b p 2.) 1.) in
  let slow = best (Swap.Params.with_tau_a (Swap.Params.with_tau_b p 8.) 6.) in
  if fast <= slow then
    Alcotest.failf "faster confirmation must raise optimal SR: %g vs %g" fast slow

let test_maximize_inside_band () =
  match (Swap.Success.maximize p, Swap.Cutoff.p_star_band_endpoints p) with
  | Some { Swap.Success.p_star; sr }, Some (lo, hi) ->
    if p_star < lo || p_star > hi then Alcotest.fail "argmax outside band";
    if sr <= 0.5 then Alcotest.failf "default max SR suspiciously low: %g" sr
  | _ -> Alcotest.fail "expected both maximize and band"

(* --- Outcome decomposition ---------------------------------------------------------- *)

let test_outcomes_sum_to_one () =
  List.iter
    (fun p_star ->
      let d = Swap.Outcomes.distribution p ~p_star in
      check_float ~tol:1e-6
        (Printf.sprintf "probabilities at %g" p_star)
        1.
        (d.Swap.Outcomes.success +. d.Swap.Outcomes.bob_balks_low
        +. d.Swap.Outcomes.bob_balks_high +. d.Swap.Outcomes.alice_reneges))
    [ 1.7; 2.0; 2.3 ]

let test_outcomes_match_sr () =
  let d = Swap.Outcomes.distribution p ~p_star:2. in
  check_float ~tol:1e-9 "success term is Eq. 31"
    (Swap.Success.analytic p ~p_star:2.)
    d.Swap.Outcomes.success

let test_outcomes_blame_shifts_with_rate () =
  let share p_star =
    Swap.Outcomes.blame_share_bob (Swap.Outcomes.distribution p ~p_star)
  in
  if not (share 1.7 > 0.7 && share 2.35 < 0.3) then
    Alcotest.fail "blame must shift from Bob (low rates) to Alice (high rates)"

let test_outcomes_mc_decomposition () =
  (* Simulate and classify failures; compare to the analytic split. *)
  let gbm = Swap.Params.gbm p in
  let p_star = 2. in
  let k3 = Swap.Cutoff.p_t3_low p ~p_star in
  let lo, hi =
    match Swap.Cutoff.p_t2_band_endpoints p ~p_star with
    | Some b -> b
    | None -> Alcotest.fail "band expected"
  in
  let rng = Rng.create ~seed:4242 () in
  let trials = 80_000 in
  let counts = [| 0; 0; 0; 0 |] in
  for _ = 1 to trials do
    let p_t2 = Gbm.sample rng gbm ~p0:p.Swap.Params.p0 ~tau:p.Swap.Params.tau_a in
    if p_t2 <= lo then counts.(1) <- counts.(1) + 1
    else if p_t2 >= hi then counts.(2) <- counts.(2) + 1
    else begin
      let p_t3 = Gbm.sample rng gbm ~p0:p_t2 ~tau:p.Swap.Params.tau_b in
      if p_t3 > k3 then counts.(0) <- counts.(0) + 1
      else counts.(3) <- counts.(3) + 1
    end
  done;
  let d = Swap.Outcomes.distribution p ~p_star in
  let expected =
    [| d.Swap.Outcomes.success; d.Swap.Outcomes.bob_balks_low;
       d.Swap.Outcomes.bob_balks_high; d.Swap.Outcomes.alice_reneges |]
  in
  Array.iteri
    (fun i c ->
      let mc = float_of_int c /. float_of_int trials in
      if abs_float (mc -. expected.(i)) > 0.01 then
        Alcotest.failf "component %d: MC %g vs analytic %g" i mc expected.(i))
    counts

let test_outcomes_durations () =
  let dur = Swap.Outcomes.durations p ~p_star:2. in
  check_float ~tol:1e-9 "success hours" 11. dur.Swap.Outcomes.success_hours;
  check_float ~tol:1e-9 "failure hours" 15. dur.Swap.Outcomes.failure_hours;
  if dur.Swap.Outcomes.expected_hours <= 11.
     || dur.Swap.Outcomes.expected_hours >= 15.
  then Alcotest.fail "expected duration must interpolate the two"

(* --- Collateral (Section IV) ------------------------------------------------------ *)

let test_collateral_reduces_to_baseline () =
  let c0 = Swap.Collateral.create p ~q_alice:0. ~q_bob:0. in
  List.iter
    (fun p_star ->
      check_float ~tol:1e-9
        (Printf.sprintf "k3 at %g" p_star)
        (Swap.Cutoff.p_t3_low p ~p_star)
        (Swap.Collateral.p_t3_low c0 ~p_star);
      check_float ~tol:1e-6
        (Printf.sprintf "SR at %g" p_star)
        (Swap.Success.analytic p ~p_star)
        (Swap.Collateral.success_rate c0 ~p_star);
      let k3 = Swap.Cutoff.p_t3_low p ~p_star in
      List.iter
        (fun p_t2 ->
          check_float ~tol:1e-9 "b_t2_cont reduction"
            (Swap.Utility.b_t2_cont p ~p_star ~k3 ~p_t2)
            (Swap.Collateral.b_t2_cont c0 ~p_star ~p_t2);
          check_float ~tol:1e-9 "a_t2_cont reduction"
            (Swap.Utility.a_t2_cont p ~p_star ~k3 ~p_t2)
            (Swap.Collateral.a_t2_cont c0 ~p_star ~p_t2))
        [ 1.5; 2.; 2.5 ])
    [ 1.8; 2.; 2.2 ]

let test_collateral_lowers_t3_cutoff () =
  let cutoff q =
    Swap.Collateral.p_t3_low (Swap.Collateral.symmetric p ~q) ~p_star:2.
  in
  if not (cutoff 0.5 < cutoff 0.2 && cutoff 0.2 < cutoff 0.) then
    Alcotest.fail "Eq. 34: cutoff must fall with the deposit";
  (* Large enough deposit floors the cutoff at 0 (Alice always reveals). *)
  check_float ~tol:1e-12 "floored at zero" 0. (cutoff 5.)

let test_collateral_sr_monotone_in_q () =
  let sr q =
    Swap.Collateral.success_rate (Swap.Collateral.symmetric p ~q) ~p_star:2.
  in
  let values = List.map sr [ 0.; 0.25; 0.5; 1. ] in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && increasing rest
    | _ -> true
  in
  if not (increasing values) then Alcotest.fail "Fig. 9: SR must rise with Q";
  if List.nth values 3 <= 0.95 then
    Alcotest.fail "Q = 1 should nearly guarantee success under defaults"

let test_collateral_set_anchored_at_zero () =
  let c = Swap.Collateral.symmetric p ~q:0.5 in
  let set = Swap.Collateral.cont_set_t2 c ~p_star:2. in
  Alcotest.(check bool) "near-zero price continues" true
    (Swap.Intervals.contains set 1e-3)

let test_collateral_initiation_sets () =
  let c = Swap.Collateral.symmetric p ~q:0.5 in
  let inter = Swap.Collateral.initiation_set ~rule:Swap.Collateral.Intersection c in
  let union = Swap.Collateral.initiation_set ~rule:Swap.Collateral.Union c in
  let alice = Swap.Collateral.initiation_set ~rule:Swap.Collateral.Alice_only c in
  (* Intersection within union; intersection within each agent's set. *)
  List.iter
    (fun x ->
      if Swap.Intervals.contains inter x then begin
        if not (Swap.Intervals.contains union x) then
          Alcotest.fail "intersection must lie in union";
        if not (Swap.Intervals.contains alice x) then
          Alcotest.fail "intersection must lie in Alice's set"
      end)
    (Array.to_list (Grid.linspace ~lo:1. ~hi:3.5 ~n:60));
  if Swap.Intervals.is_empty inter then
    Alcotest.fail "moderate collateral should keep the swap viable"

let test_premium_between_baseline_and_collateral () =
  let base = Swap.Success.analytic p ~p_star:2. in
  let prem =
    Swap.Premium.success_rate (Swap.Premium.create p ~w:0.5) ~p_star:2.
  in
  let coll =
    Swap.Collateral.success_rate (Swap.Collateral.symmetric p ~q:0.5) ~p_star:2.
  in
  if not (base < prem && prem < coll) then
    Alcotest.failf "expected base < premium < collateral: %g %g %g" base prem
      coll

let test_premium_zero_is_baseline () =
  check_float ~tol:1e-6 "w=0 premium"
    (Swap.Success.analytic p ~p_star:2.)
    (Swap.Premium.success_rate (Swap.Premium.create p ~w:0.) ~p_star:2.)

(* --- Presets --------------------------------------------------------------------- *)

let test_presets_matrix_shape () =
  let m = Swap.Presets.standard_matrix () in
  Alcotest.(check int) "4 choose 2 + diagonal" 10 (List.length m);
  List.iter
    (fun (a : Swap.Presets.assessment) ->
      if a.Swap.Presets.swap_hours <= 0. then
        Alcotest.fail "durations must be positive")
    m

let test_presets_fast_chains_beat_slow () =
  let sr tech =
    match (Swap.Presets.assess tech tech).Swap.Presets.best with
    | Some b -> b.Swap.Success.sr
    | None -> 0.
  in
  if not
       (sr Swap.Presets.fast_finality > sr Swap.Presets.btc_like
       && sr Swap.Presets.btc_like > sr Swap.Presets.paper_default)
  then Alcotest.fail "faster finality must raise the achievable SR"

let test_presets_duration_scales_with_tau () =
  let hours tech =
    (Swap.Presets.assess tech tech).Swap.Presets.swap_hours
  in
  if not
       (hours Swap.Presets.fast_finality < hours Swap.Presets.eth_like
       && hours Swap.Presets.eth_like < hours Swap.Presets.btc_like)
  then Alcotest.fail "swap duration must scale with finality time"

let test_presets_eps_constraint_respected () =
  (* Pairing a slow mempool chain_b tech with itself must still satisfy
     Eq. 3 via clamping. *)
  let p' =
    Swap.Presets.pair ~chain_a:Swap.Presets.paper_default
      ~chain_b:Swap.Presets.fast_finality ()
  in
  match Swap.Params.validate p' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "preset pair invalid: %s" e

(* --- Optimal tuning ------------------------------------------------------------------ *)

let test_min_q_for_sr () =
  match Swap.Optimal.min_q_for_sr p ~p_star:2. ~target:0.95 with
  | None -> Alcotest.fail "95% should be reachable"
  | Some { Swap.Optimal.q; sr } ->
    if sr < 0.95 -. 1e-3 then Alcotest.failf "target missed: %g" sr;
    (* Minimality: a noticeably smaller deposit misses the target. *)
    let less = Swap.Optimal.sr_of_q p ~p_star:2. ~q:(q -. 0.05) in
    if less >= 0.95 then Alcotest.fail "returned q is not minimal"

let test_min_q_monotone_in_target () =
  let q_of target =
    match Swap.Optimal.min_q_for_sr p ~p_star:2. ~target with
    | Some { Swap.Optimal.q; _ } -> q
    | None -> infinity
  in
  if not (q_of 0.8 <= q_of 0.9 && q_of 0.9 <= q_of 0.99) then
    Alcotest.fail "required deposit must grow with the target"

let test_welfare_optimum_is_interior () =
  let { Swap.Optimal.q; sr }, surplus = Swap.Optimal.best_q_for_welfare p ~p_star:2. in
  if surplus <= 0. then Alcotest.failf "surplus must be positive: %g" surplus;
  if q < 0. then Alcotest.fail "negative deposit";
  if sr <= Swap.Success.analytic p ~p_star:2. -. 1e-6 then
    Alcotest.fail "welfare optimum should not reduce SR below baseline"

(* --- properties ------------------------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"Eq. 18 cutoff scales linearly in P*" ~count:100
      (float_range 0.5 5.)
      (fun p_star ->
        let k = Swap.Cutoff.p_t3_low p ~p_star in
        let k2 = Swap.Cutoff.p_t3_low p ~p_star:(2. *. p_star) in
        abs_float (k2 -. (2. *. k)) < 1e-9);
    Test.make ~name:"SR in [0,1] across random params" ~count:40
      (quad (float_range 0.05 0.5) (float_range 0.003 0.03)
         (float_range (-0.01) 0.01) (float_range 0.03 0.25))
      (fun (alpha, r, mu, sigma) ->
        let p' =
          Swap.Params.create
            ~alice:{ Swap.Params.alpha; r }
            ~bob:{ Swap.Params.alpha; r }
            ~mu ~sigma ()
        in
        let sr = Swap.Success.analytic p' ~p_star:2. in
        sr >= 0. && sr <= 1. +. 1e-9);
    Test.make ~name:"collateral SR >= baseline SR" ~count:30
      (pair (float_range 0. 1.5) (float_range 1.7 2.3))
      (fun (q, p_star) ->
        let base = Swap.Success.analytic p ~p_star in
        let coll =
          Swap.Collateral.success_rate (Swap.Collateral.symmetric p ~q) ~p_star
        in
        coll >= base -. 1e-6);
    Test.make ~name:"price-level homogeneity of SR" ~count:20
      (pair (float_range 0.3 4.) (float_range 0.8 1.2))
      (fun (scale, ratio) ->
        (* Scaling spot and rate together must not change the SR — the
           law behind the precomputed quote tables. *)
        let p_star = 2. *. ratio in
        let base = Swap.Success.analytic p ~p_star in
        let scaled =
          Swap.Success.analytic
            (Swap.Params.with_p0 p (2. *. scale))
            ~p_star:(p_star *. scale)
        in
        abs_float (base -. scaled) < 1e-6);
    Test.make ~name:"t3 cutoff decreasing in alpha_A" ~count:50
      (pair (float_range 0.05 0.6) (float_range 0.01 0.3))
      (fun (alpha, bump) ->
        let cut a =
          Swap.Cutoff.p_t3_low (Swap.Params.with_alpha_alice p a) ~p_star:2.
        in
        cut (alpha +. bump) < cut alpha);
    Test.make ~name:"timeline satisfies Eq. 12 for random params" ~count:50
      (triple (float_range 0.5 10.) (float_range 0.5 10.) (float_range 0. 0.45))
      (fun (tau_a, tau_b, eps_frac) ->
        let p' =
          Swap.Params.create ~tau_a ~tau_b ~eps_b:(eps_frac *. tau_b) ()
        in
        Swap.Timeline.check p' (Swap.Timeline.ideal p') = Ok ());
    Test.make ~name:"collateral initiation intersection within union" ~count:10
      (float_range 0.1 1.)
      (fun q ->
        let c = Swap.Collateral.symmetric p ~q in
        let inter =
          Swap.Collateral.initiation_set ~rule:Swap.Collateral.Intersection c
        in
        let union =
          Swap.Collateral.initiation_set ~rule:Swap.Collateral.Union c
        in
        Array.for_all
          (fun x ->
            (not (Swap.Intervals.contains inter x))
            || Swap.Intervals.contains union x)
          (Grid.linspace ~lo:0.5 ~hi:5. ~n:40));
    Test.make ~name:"t2 band endpoints bracket positive g" ~count:30
      (float_range 1.6 2.4)
      (fun p_star ->
        match Swap.Cutoff.p_t2_band_endpoints p ~p_star with
        | None -> true
        | Some (lo, hi) ->
          let k3 = Swap.Cutoff.p_t3_low p ~p_star in
          let mid = sqrt (lo *. hi) in
          Swap.Utility.b_t2_cont p ~p_star ~k3 ~p_t2:mid -. mid > -1e-9);
  ]

let () =
  let props = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "swap"
    [
      ( "params",
        [
          Alcotest.test_case "defaults valid" `Quick test_params_defaults_valid;
          Alcotest.test_case "validation rules" `Quick test_params_validation;
          Alcotest.test_case "create rejects invalid" `Quick
            test_params_create_rejects;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "Eq. 13 schedule" `Quick test_timeline_eq13;
          Alcotest.test_case "satisfies Eq. 12" `Quick
            test_timeline_satisfies_eq12;
          Alcotest.test_case "violations caught" `Quick
            test_timeline_check_catches_violation;
          Alcotest.test_case "start offset" `Quick test_timeline_offset;
        ] );
      ( "intervals",
        [
          Alcotest.test_case "membership" `Quick test_intervals_basic;
          Alcotest.test_case "validation" `Quick test_intervals_validation;
          Alcotest.test_case "set operations" `Quick test_intervals_set_ops;
          Alcotest.test_case "from sign changes" `Quick
            test_intervals_from_signs;
        ] );
      ( "utility",
        [
          Alcotest.test_case "Alice t3 (Eqs. 14, 16)" `Quick
            test_a_t3_utilities;
          Alcotest.test_case "Bob t3 (Eqs. 15, 17)" `Quick test_b_t3_utilities;
          Alcotest.test_case "Eq. 20 vs quadrature" `Quick
            test_a_t2_cont_vs_quadrature;
          Alcotest.test_case "Eq. 21 vs quadrature" `Quick
            test_b_t2_cont_vs_quadrature;
        ] );
      ( "cutoff",
        [
          Alcotest.test_case "Eq. 18 closed form" `Quick
            test_p_t3_low_closed_form;
          Alcotest.test_case "t2 band endpoints are roots" `Quick
            test_p_t2_band_roots;
          Alcotest.test_case "tiny alpha shrinks the band" `Quick
            test_p_t2_band_empty_for_tiny_alpha;
          Alcotest.test_case "Eq. 29 reproduction" `Quick
            test_eq29_feasible_band;
          Alcotest.test_case "alpha widens feasibility" `Quick
            test_feasible_band_widens_with_alpha;
          Alcotest.test_case "impatience kills feasibility" `Quick
            test_high_r_kills_feasibility;
          Alcotest.test_case "memo cache hits on repeats" `Quick
            test_cutoff_memo_cache_hits;
        ] );
      ( "success",
        [
          Alcotest.test_case "bounds and interior max" `Quick
            test_sr_bounds_and_interior_max;
          Alcotest.test_case "monotone in alpha" `Quick
            test_sr_increases_with_alpha;
          Alcotest.test_case "falls with volatility" `Quick
            test_sr_decreases_with_volatility;
          Alcotest.test_case "rises with drift" `Quick
            test_sr_increases_with_drift;
          Alcotest.test_case "faster chains help" `Quick
            test_sr_improves_with_faster_chains;
          Alcotest.test_case "argmax inside band" `Quick
            test_maximize_inside_band;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "probabilities sum to 1" `Quick
            test_outcomes_sum_to_one;
          Alcotest.test_case "success term is Eq. 31" `Quick
            test_outcomes_match_sr;
          Alcotest.test_case "blame shifts with the rate" `Quick
            test_outcomes_blame_shifts_with_rate;
          Alcotest.test_case "Monte-Carlo decomposition" `Slow
            test_outcomes_mc_decomposition;
          Alcotest.test_case "durations" `Quick test_outcomes_durations;
        ] );
      ( "collateral",
        [
          Alcotest.test_case "q = 0 reduces to baseline" `Quick
            test_collateral_reduces_to_baseline;
          Alcotest.test_case "Eq. 34 cutoff falls with Q" `Quick
            test_collateral_lowers_t3_cutoff;
          Alcotest.test_case "Fig. 9: SR monotone in Q" `Quick
            test_collateral_sr_monotone_in_q;
          Alcotest.test_case "t2 set anchored at zero" `Quick
            test_collateral_set_anchored_at_zero;
          Alcotest.test_case "initiation set algebra" `Quick
            test_collateral_initiation_sets;
          Alcotest.test_case "premium between base and collateral" `Quick
            test_premium_between_baseline_and_collateral;
          Alcotest.test_case "w = 0 premium is baseline" `Quick
            test_premium_zero_is_baseline;
        ] );
      ( "presets",
        [
          Alcotest.test_case "matrix shape" `Slow test_presets_matrix_shape;
          Alcotest.test_case "fast chains beat slow" `Quick
            test_presets_fast_chains_beat_slow;
          Alcotest.test_case "duration scales with tau" `Quick
            test_presets_duration_scales_with_tau;
          Alcotest.test_case "Eq. 3 respected" `Quick
            test_presets_eps_constraint_respected;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "minimal q for target SR" `Quick test_min_q_for_sr;
          Alcotest.test_case "q monotone in target" `Quick
            test_min_q_monotone_in_target;
          Alcotest.test_case "welfare optimum" `Quick
            test_welfare_optimum_is_interior;
        ] );
      ("properties", props);
    ]
