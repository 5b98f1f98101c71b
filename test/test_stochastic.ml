(* Tests for the stochastic-process substrate: GBM transition law,
   lattices, jump diffusion, exponential OU, paths. *)

open Numerics
open Stochastic

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

let gbm = Gbm.create ~mu:0.002 ~sigma:0.1

(* --- GBM ----------------------------------------------------------------- *)

let test_gbm_expectation () =
  (* Paper: E(P_t, tau) = P_t e^{mu tau}. *)
  check_float ~tol:1e-12 "expectation" (2. *. exp (0.002 *. 4.))
    (Gbm.expectation gbm ~p0:2. ~tau:4.);
  (* And by quadrature over the transition pdf. *)
  let by_quadrature =
    Oracle.Quad.semi_infinite ~n:600
      (fun x -> x *. Gbm.pdf gbm ~x ~p0:2. ~tau:4.)
      ~a:0.
  in
  check_float ~tol:1e-6 "expectation by quadrature"
    (Gbm.expectation gbm ~p0:2. ~tau:4.)
    by_quadrature

let test_gbm_cdf_limits () =
  check_float ~tol:1e-12 "cdf at 0" 0. (Gbm.cdf gbm ~x:1e-15 ~p0:2. ~tau:4.);
  check_float ~tol:1e-9 "cdf at huge" 1. (Gbm.cdf gbm ~x:1e6 ~p0:2. ~tau:4.);
  check_float ~tol:1e-12 "cdf+sf=1" 1.
    (Gbm.cdf gbm ~x:2.3 ~p0:2. ~tau:4. +. Gbm.sf gbm ~x:2.3 ~p0:2. ~tau:4.)

let test_gbm_cdf_median () =
  (* The median of the transition is p0 e^{(mu - sigma^2/2) tau}. *)
  let median = 2. *. exp ((0.002 -. 0.005) *. 4.) in
  check_float ~tol:1e-12 "cdf at median" 0.5
    (Gbm.cdf gbm ~x:median ~p0:2. ~tau:4.)

let test_gbm_cdf_pdf_consistency () =
  (* d/dx CDF = pdf, checked by a central difference. *)
  let x = 2.2 and h = 1e-5 in
  let deriv =
    (Gbm.cdf gbm ~x:(x +. h) ~p0:2. ~tau:4.
    -. Gbm.cdf gbm ~x:(x -. h) ~p0:2. ~tau:4.)
    /. (2. *. h)
  in
  check_float ~tol:1e-6 "cdf' = pdf" (Gbm.pdf gbm ~x ~p0:2. ~tau:4.) deriv

let test_gbm_sample_moments () =
  let rng = Rng.create ~seed:101 () in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Gbm.sample rng gbm ~p0:2. ~tau:4.) in
  let s = Stats.summarize xs in
  check_float ~tol:5e-3 "sample mean" (Gbm.expectation gbm ~p0:2. ~tau:4.)
    s.Stats.mean;
  (* Log returns should have mean (mu - sigma^2/2) tau and sd sigma sqrt tau. *)
  let logs = Array.map (fun x -> log (x /. 2.)) xs in
  let ls = Stats.summarize logs in
  check_float ~tol:2e-3 "log mean" (Gbm.log_return_mean gbm ~tau:4.) ls.Stats.mean;
  check_float ~tol:2e-3 "log sd" (Gbm.log_return_stddev gbm ~tau:4.)
    ls.Stats.stddev

let test_gbm_partial_expectations () =
  let k = 2.1 in
  let above = Gbm.leg_pe_above (Gbm.leg gbm ~tau:4.) ~k ~p0:2. in
  let below = Gbm.partial_expectation_below gbm ~k ~p0:2. ~tau:4. in
  check_float ~tol:1e-10 "above+below=mean"
    (Gbm.expectation gbm ~p0:2. ~tau:4.)
    (above +. below);
  let above_quad =
    Oracle.Quad.semi_infinite ~n:600
      (fun x -> x *. Gbm.pdf gbm ~x ~p0:2. ~tau:4.)
      ~a:k
  in
  check_float ~tol:1e-6 "above by quadrature" above_quad above

let test_gbm_path () =
  let rng = Rng.create ~seed:55 () in
  let times = [| 1.; 2.; 5.; 8. |] in
  let path = Gbm.sample_path rng gbm ~p0:2. ~times in
  Alcotest.(check int) "length" 4 (Array.length path);
  Array.iter (fun v -> if v <= 0. then Alcotest.fail "nonpositive price") path

let test_gbm_invalid () =
  Alcotest.check_raises "sigma <= 0"
    (Invalid_argument "Gbm.create: requires sigma > 0") (fun () ->
      ignore (Gbm.create ~mu:0. ~sigma:0.));
  Alcotest.check_raises "p0 <= 0" (Invalid_argument "Gbm: requires p0 > 0")
    (fun () -> ignore (Gbm.expectation gbm ~p0:0. ~tau:1.))

(* --- Lattice --------------------------------------------------------------- *)

let test_lattice_probabilities () =
  let lat = Lattice.create gbm ~p0:2. ~horizon:4. ~steps:40 in
  let total = ref 0. in
  for index = 0 to 40 do
    total := !total +. Lattice.node_probability lat ~level:40 ~index
  done;
  check_float ~tol:1e-9 "node probabilities sum to 1" 1. !total

(* The lattice expectation of the price at [level]. *)
let lattice_mean lat ~level =
  let acc = ref 0. in
  Array.iteri
    (fun index p -> acc := !acc +. (Lattice.node_probability lat ~level ~index *. p))
    (Lattice.level_prices lat ~level);
  !acc

let test_lattice_expectation_converges () =
  let exact = Gbm.expectation gbm ~p0:2. ~tau:4. in
  List.iter
    (fun steps ->
      let lat = Lattice.create gbm ~p0:2. ~horizon:4. ~steps in
      let approx = lattice_mean lat ~level:steps in
      if abs_float (approx -. exact) > 0.005 then
        Alcotest.failf "lattice(%d) expectation %g vs %g" steps approx exact)
    [ 20; 80 ]

let test_lattice_prices_monotone () =
  let lat = Lattice.create gbm ~p0:2. ~horizon:4. ~steps:10 in
  let prices = Lattice.level_prices lat ~level:10 in
  for i = 1 to 10 do
    if prices.(i) <= prices.(i - 1) then
      Alcotest.fail "prices not increasing in index"
  done

let test_lattice_expected_value () =
  let lat = Lattice.create gbm ~p0:2. ~horizon:1. ~steps:1 in
  let ev = lattice_mean lat ~level:1 in
  check_float ~tol:1e-9 "one-step expectation" (2. *. exp (0.002 *. 1.)) ev

let test_lattice_distribution_cdf () =
  (* The lattice CDF at the GBM median should approach 1/2. *)
  let steps = 200 in
  let lat = Lattice.create gbm ~p0:2. ~horizon:4. ~steps in
  let median = 2. *. exp ((0.002 -. 0.005) *. 4.) in
  let below = ref 0. in
  for index = 0 to steps do
    if Lattice.price lat ~level:steps ~index <= median then
      below := !below +. Lattice.node_probability lat ~level:steps ~index
  done;
  check_float ~tol:0.04 "lattice cdf at median" 0.5 !below

(* --- Jump diffusion --------------------------------------------------------- *)

let test_jump_reduces_to_gbm () =
  let jd =
    Jump_diffusion.create ~mu:0.002 ~sigma:0.1 ~lambda:0. ~jump_mean:0.
      ~jump_stddev:0.1
  in
  let rng1 = Rng.create ~seed:5 () and rng2 = Rng.create ~seed:5 () in
  let a = Jump_diffusion.sample rng1 jd ~p0:2. ~tau:4. in
  let b = Gbm.sample rng2 gbm ~p0:2. ~tau:4. in
  check_float ~tol:1e-12 "lambda=0 equals GBM draw" b a

let test_jump_expectation () =
  let jd =
    Jump_diffusion.create ~mu:0.002 ~sigma:0.1 ~lambda:0.05 ~jump_mean:(-0.02)
      ~jump_stddev:0.3
  in
  let rng = Rng.create ~seed:6 () in
  let n = 300_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Jump_diffusion.sample rng jd ~p0:2. ~tau:4.
  done;
  let mc = !sum /. float_of_int n in
  check_float ~tol:0.02 "jump expectation"
    (Jump_diffusion.expectation jd ~p0:2. ~tau:4.)
    mc

(* --- Exponential OU (Schwartz) ---------------------------------------------- *)

let ou = Exp_ou.create ~kappa:0.1 ~theta_price:2. ~sigma:0.1

let test_exp_ou_transition_moments () =
  let rng = Rng.create ~seed:303 () in
  let n = 100_000 in
  let law = Exp_ou.transition ou ~p0:3. ~tau:5. in
  let xs =
    Array.init n (fun _ ->
        Rng.lognormal rng ~mu:law.Lognormal.mu ~sigma:law.Lognormal.sigma)
  in
  let s = Stats.summarize xs in
  check_float ~tol:0.01 "MC mean matches analytic" (Lognormal.mean law)
    s.Stats.mean;
  (* Log mean reverts toward the peg. *)
  let log_mean = (Stats.summarize (Array.map log xs)).Stats.mean in
  let expected_log = log 2. +. ((log 3. -. log 2.) *. exp (-0.1 *. 5.)) in
  check_float ~tol:5e-3 "log mean reverts" expected_log log_mean

let test_exp_ou_pulls_toward_peg () =
  (* From above the peg the expectation falls; from below it rises. *)
  let expectation ~p0 = Lognormal.mean (Exp_ou.transition ou ~p0 ~tau:10.) in
  if expectation ~p0:3. >= 3. then
    Alcotest.fail "must revert downward from above";
  if expectation ~p0:1. <= 1. then
    Alcotest.fail "must revert upward from below"

let test_exp_ou_stationary_limit () =
  (* The tau -> infinity law: log price ~ N(ln theta_price,
     sigma^2 / (2 kappa)). *)
  let far = Exp_ou.transition ou ~p0:17. ~tau:500. in
  check_float ~tol:1e-6 "mu converges" (log 2.) far.Numerics.Lognormal.mu;
  check_float ~tol:1e-6 "sigma converges" (0.1 /. sqrt 0.2)
    far.Numerics.Lognormal.sigma

let test_exp_ou_short_horizon_is_gbm_like () =
  (* Over horizons far below the half life the transition sd matches a
     GBM's sigma sqrt(tau). *)
  let law = Exp_ou.transition ou ~p0:2. ~tau:0.01 in
  check_float ~tol:1e-4 "short-run diffusion" (0.1 *. sqrt 0.01)
    law.Numerics.Lognormal.sigma

let test_exp_ou_half_life () =
  check_float ~tol:1e-12 "half life" (log 2. /. 0.1) (Exp_ou.half_life ou);
  (* After one half life the log deviation halves. *)
  let tau = Exp_ou.half_life ou in
  let law = Exp_ou.transition ou ~p0:4. ~tau in
  check_float ~tol:1e-9 "deviation halves"
    (log 2. +. (0.5 *. (log 4. -. log 2.)))
    law.Numerics.Lognormal.mu

let test_exp_ou_validation () =
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected rejection")
    [
      (fun () -> Exp_ou.create ~kappa:0. ~theta_price:2. ~sigma:0.1);
      (fun () -> Exp_ou.create ~kappa:1. ~theta_price:0. ~sigma:0.1);
      (fun () -> Exp_ou.create ~kappa:1. ~theta_price:2. ~sigma:0.);
    ]

(* --- Path ---------------------------------------------------------------------- *)

let demo_path () =
  Path.create ~times:[| 1.; 2.; 4. |] ~values:[| 10.; 12.; 9. |]

let test_path_at () =
  let p = demo_path () in
  check_float ~tol:0. "at exact" 12. (Path.at p 2.);
  check_float ~tol:0. "previous tick" 12. (Path.at p 3.9);
  check_float ~tol:0. "beyond end" 9. (Path.at p 100.);
  Alcotest.check_raises "before start"
    (Invalid_argument "Path.at: time precedes first sample") (fun () ->
      ignore (Path.at p 0.5))

let test_path_log_returns () =
  let p = demo_path () in
  let rets = Path.log_returns p in
  Alcotest.(check int) "n-1 returns" 2 (Array.length rets);
  check_float ~tol:1e-12 "first" (log (12. /. 10.)) rets.(0)

let test_path_invalid () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Path.create: times must be strictly increasing")
    (fun () -> ignore (Path.create ~times:[| 2.; 1. |] ~values:[| 1.; 2. |]))

let test_realized_volatility_recovers_sigma () =
  let rng = Rng.create ~seed:21 () in
  let times = Array.init 2000 (fun i -> 0.5 *. float_of_int (i + 1)) in
  let values = Gbm.sample_path rng gbm ~p0:2. ~times in
  let p = Path.create ~times ~values in
  check_float ~tol:0.01 "realized vol ~ sigma" 0.1 (Path.realized_volatility p)

(* --- properties ------------------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"gbm cdf monotone in x" ~count:200
      (pair (float_range 0.1 10.) (float_range 0.1 10.))
      (fun (a, b) ->
        let a, b = if a <= b then (a, b) else (b, a) in
        Gbm.cdf gbm ~x:a ~p0:2. ~tau:4. <= Gbm.cdf gbm ~x:b ~p0:2. ~tau:4. +. 1e-12);
    Test.make ~name:"gbm partial expectations consistent" ~count:200
      (float_range 0.05 20.)
      (fun k ->
        let above = Gbm.leg_pe_above (Gbm.leg gbm ~tau:4.) ~k ~p0:2. in
        let below = Gbm.partial_expectation_below gbm ~k ~p0:2. ~tau:4. in
        abs_float (above +. below -. Gbm.expectation gbm ~p0:2. ~tau:4.) < 1e-9);
    Test.make ~name:"lattice up-prob in (0,1) across sigmas" ~count:100
      (pair (float_range 0.02 0.5) (int_range 30 200))
      (fun (sigma, steps) ->
        let g = Gbm.create ~mu:0.002 ~sigma in
        let lat = Lattice.create g ~p0:2. ~horizon:4. ~steps in
        let p_up = Lattice.node_probability lat ~level:1 ~index:1 in
        p_up > 0. && p_up < 1.);
    Test.make ~name:"gbm samples positive" ~count:300
      (int_range 0 10_000)
      (fun seed ->
        let rng = Rng.create ~seed () in
        Gbm.sample rng gbm ~p0:2. ~tau:4. > 0.);
  ]

let () =
  let props = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "stochastic"
    [
      ( "gbm",
        [
          Alcotest.test_case "expectation (paper E)" `Quick test_gbm_expectation;
          Alcotest.test_case "cdf limits" `Quick test_gbm_cdf_limits;
          Alcotest.test_case "cdf at median" `Quick test_gbm_cdf_median;
          Alcotest.test_case "cdf/pdf consistency" `Quick
            test_gbm_cdf_pdf_consistency;
          Alcotest.test_case "sample moments" `Slow test_gbm_sample_moments;
          Alcotest.test_case "partial expectations" `Quick
            test_gbm_partial_expectations;
          Alcotest.test_case "sample path" `Quick test_gbm_path;
          Alcotest.test_case "invalid arguments" `Quick test_gbm_invalid;
        ] );
      ( "lattice",
        [
          Alcotest.test_case "probabilities sum to 1" `Quick
            test_lattice_probabilities;
          Alcotest.test_case "expectation converges" `Quick
            test_lattice_expectation_converges;
          Alcotest.test_case "prices monotone" `Quick
            test_lattice_prices_monotone;
          Alcotest.test_case "one-step expected value" `Quick
            test_lattice_expected_value;
          Alcotest.test_case "cdf at median" `Quick
            test_lattice_distribution_cdf;
        ] );
      ( "jump_diffusion",
        [
          Alcotest.test_case "lambda=0 reduces to GBM" `Quick
            test_jump_reduces_to_gbm;
          Alcotest.test_case "expectation formula" `Slow test_jump_expectation;
        ] );
      ( "exp_ou",
        [
          Alcotest.test_case "transition moments" `Slow
            test_exp_ou_transition_moments;
          Alcotest.test_case "pulls toward the peg" `Quick
            test_exp_ou_pulls_toward_peg;
          Alcotest.test_case "stationary limit" `Quick
            test_exp_ou_stationary_limit;
          Alcotest.test_case "short horizon is GBM-like" `Quick
            test_exp_ou_short_horizon_is_gbm_like;
          Alcotest.test_case "half life" `Quick test_exp_ou_half_life;
          Alcotest.test_case "validation" `Quick test_exp_ou_validation;
        ] );
      ( "path",
        [
          Alcotest.test_case "previous-tick lookup" `Quick test_path_at;
          Alcotest.test_case "log returns" `Quick test_path_log_returns;
          Alcotest.test_case "validation" `Quick test_path_invalid;
          Alcotest.test_case "realized volatility" `Slow
            test_realized_volatility_recovers_sigma;
        ] );
      ("properties", props);
    ]
