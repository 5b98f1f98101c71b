(* Tests for the numerics substrate: special functions, distributions,
   quadrature, root finding, RNG and statistics. *)

open Numerics

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

(* --- Special functions ------------------------------------------------ *)

(* Reference values computed with mpmath at 50 digits. *)
let erf_reference =
  [ (0.0, 0.0);
    (0.1, 0.1124629160182848922);
    (0.5, 0.5204998778130465377);
    (1.0, 0.8427007929497148693);
    (2.0, 0.9953222650189527342);
    (3.0, 0.9999779095030014146) ]

let erfc_reference =
  [ (0.5, 0.4795001221869534623);
    (1.0, 0.1572992070502851307);
    (2.0, 0.004677734981047265);
    (4.0, 1.541725790028002e-8);
    (6.0, 2.1519736712498913e-17) ]

let test_erf () =
  List.iter
    (fun (x, y) ->
      check_float ~tol:1e-12 (Printf.sprintf "erf %g" x) y (Special.erf x);
      check_float ~tol:1e-12
        (Printf.sprintf "erf (-%g)" x)
        (-.y)
        (Special.erf (-.x)))
    erf_reference

let test_erfc () =
  List.iter
    (fun (x, y) ->
      let rel = abs_float ((Special.erfc x -. y) /. y) in
      if rel > 1e-10 then
        Alcotest.failf "erfc %g: rel error %g (got %.17g, want %.17g)" x rel
          (Special.erfc x) y)
    erfc_reference

let test_erfc_symmetry () =
  List.iter
    (fun x ->
      check_float ~tol:1e-12
        (Printf.sprintf "erfc(-x) = 2 - erfc(x) at %g" x)
        (2. -. Special.erfc x)
        (Special.erfc (-.x)))
    [ 0.1; 0.7; 1.3; 2.5 ]

let test_erfc_inv () =
  List.iter
    (fun x ->
      let y = Special.erfc x in
      if y > 0. && y < 2. then
        check_float ~tol:1e-10
          (Printf.sprintf "erfc_inv (erfc %g)" x)
          x
          (Special.erfc_inv y))
    [ -2.0; -1.0; -0.3; 0.0; 0.2; 0.9; 1.7; 3.0; 4.5 ]

let test_log_gamma () =
  (* Gamma(n) = (n-1)! *)
  check_float ~tol:1e-12 "log_gamma 1" 0. (Special.log_gamma 1.);
  check_float ~tol:1e-12 "log_gamma 2" 0. (Special.log_gamma 2.);
  check_float ~tol:1e-10 "log_gamma 5" (log 24.) (Special.log_gamma 5.);
  check_float ~tol:1e-10 "log_gamma 0.5" (log (sqrt Special.pi))
    (Special.log_gamma 0.5);
  check_float ~tol:1e-9 "log_gamma 10.3" 13.48203678613836
    (Special.log_gamma 10.3)

(* The incomplete-gamma route the library's erfc is fitted from lives in
   test/oracle; its own identities still hold. *)
let test_gamma_p_q () =
  let open Oracle.Gamma in
  (* P(a,x) + Q(a,x) = 1 *)
  List.iter
    (fun (a, x) ->
      check_float ~tol:1e-12
        (Printf.sprintf "P+Q=1 at a=%g x=%g" a x)
        1.
        (gamma_p a x +. gamma_q a x))
    [ (0.5, 0.1); (0.5, 3.); (2., 1.); (5., 10.); (10., 3.) ];
  (* P(1, x) = 1 - exp(-x) *)
  List.iter
    (fun x ->
      check_float ~tol:1e-12
        (Printf.sprintf "P(1,%g)" x)
        (1. -. exp (-.x))
        (gamma_p 1. x))
    [ 0.2; 1.; 4. ]

(* The Chebyshev erfc against the gamma oracle on a grid of step 1/1024
   over [-6, 26.5], which reaches erfc's underflow.  On |x| <= 6 the
   largest relative difference, 1.0e-14, sits at x = 1.22, where the
   oracle switches from its series to its continued fraction (x^2 = 1.5)
   and is least accurate itself: against 40-digit arithmetic the fit's
   worst error there is 6.6e-15 and the oracle's 7.9e-15.  Beyond
   |x| = 6 both routes round -x^2 inside one exp, so each carries up to
   ~x^2 ulp of relative error; the bound pins that growth (measured
   worst ratio to x^2 eps: 1.7).  The exponent is not split into an
   exact and a small part as in Cody's erfc. *)
let test_erfc_oracle () =
  let core = ref 0. and tail = ref 0. in
  let n = 32 * 1024 in
  for i = 0 to n do
    let x = -6. +. (32.5 *. float_of_int i /. float_of_int n) in
    let want = Oracle.Gamma.erfc x in
    if want > 0. then begin
      let rel = abs_float (Special.erfc x -. want) /. want in
      if abs_float x <= 6. then core := Float.max !core rel
      else tail := Float.max !tail (rel /. (x *. x *. epsilon_float))
    end
  done;
  if !core > 1.5e-14 then
    Alcotest.failf "erfc vs oracle on |x| <= 6: rel %.3g > 1.5e-14" !core;
  if !tail > 3. then
    Alcotest.failf "erfc vs oracle for x > 6: rel / (x^2 eps) = %.3g > 3"
      !tail

(* The gamma path allocates ~29 words per call.  The fit allocates only
   its boxed result (2 words): measured against a call of the identity,
   which pays the same argument boxing and accumulation. *)
let test_erfc_allocation () =
  let xs = Array.init 1000 (fun i -> -4. +. (0.011 *. float_of_int i)) in
  let sink = ref 0. in
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 10 do
      Array.iter (fun x -> sink := !sink +. f x) xs
    done;
    (Gc.minor_words () -. w0) /. 10_000.
  in
  let base = words Fun.id in
  let fit = words Special.erfc -. base in
  let oracle = words Oracle.Gamma.erfc -. base in
  if fit > 2. then Alcotest.failf "erfc allocates %.2f words per call" fit;
  if oracle < 20. then
    Alcotest.failf "oracle allocates only %.1f words per call" oracle;
  Alcotest.(check bool) "finite" true (Float.is_finite !sink)

(* --- Normal distribution ---------------------------------------------- *)

let test_normal_cdf () =
  check_float ~tol:1e-12 "cdf 0" 0.5 (Normal.cdf 0.);
  check_float ~tol:1e-10 "cdf 1.96" 0.9750021048517795 (Normal.cdf 1.96);
  check_float ~tol:1e-10 "cdf -1.96" 0.0249978951482205 (Normal.cdf (-1.96));
  check_float ~tol:1e-12 "sf symmetry" (Normal.cdf (-1.3)) (Normal.sf 1.3);
  check_float ~tol:1e-10 "general cdf"
    (Normal.cdf 1.5)
    (Normal.cdf ~mean:10. ~stddev:2. 13.)

let test_normal_quantile () =
  List.iter
    (fun p ->
      check_float ~tol:1e-9
        (Printf.sprintf "cdf (quantile %g)" p)
        p
        (Normal.cdf (Normal.quantile p)))
    [ 1e-8; 0.001; 0.025; 0.3; 0.5; 0.8; 0.975; 0.999; 1. -. 1e-8 ]

let test_normal_pdf_integrates () =
  let integral =
    Integrate.adaptive_simpson ~tol:1e-12 (fun x -> Normal.pdf x) ~a:(-8.)
      ~b:8.
  in
  check_float ~tol:1e-9 "pdf integrates to 1" 1. integral

(* --- Lognormal --------------------------------------------------------- *)

let test_lognormal_moments () =
  let d = Lognormal.create ~mu:0.3 ~sigma:0.4 in
  check_float ~tol:1e-12 "mean" (exp (0.3 +. (0.5 *. 0.16))) (Lognormal.mean d);
  check_float ~tol:1e-12 "median" (exp 0.3) (Lognormal.median d);
  (* Mean as an integral of x * pdf *)
  let by_quadrature =
    Integrate.semi_infinite ~n:400 (fun x -> x *. Lognormal.pdf d x) ~a:0.
  in
  check_float ~tol:1e-6 "mean by quadrature" (Lognormal.mean d) by_quadrature

let test_lognormal_partial_expectations () =
  let d = Lognormal.create ~mu:0.1 ~sigma:0.5 in
  List.iter
    (fun k ->
      let above =
        Integrate.semi_infinite ~n:600 (fun x -> x *. Lognormal.pdf d x) ~a:k
      in
      check_float ~tol:1e-6
        (Printf.sprintf "E[X 1(X>%g)]" k)
        above
        (Lognormal.partial_expectation_above d k);
      check_float ~tol:1e-6 "below + above = mean" (Lognormal.mean d)
        (Lognormal.partial_expectation_above d k
        +. Lognormal.partial_expectation_below d k))
    [ 0.5; 1.0; 1.5; 3.0 ]

let test_lognormal_cdf_pdf_consistency () =
  let d = Lognormal.create ~mu:(-0.2) ~sigma:0.3 in
  List.iter
    (fun k ->
      let cdf_by_quadrature =
        Integrate.adaptive_simpson ~tol:1e-12 (Lognormal.pdf d) ~a:1e-12 ~b:k
      in
      check_float ~tol:1e-8
        (Printf.sprintf "cdf %g" k)
        cdf_by_quadrature (Lognormal.cdf d k))
    [ 0.5; 0.8; 1.2; 2.0 ]

(* --- Quadrature --------------------------------------------------------- *)

let test_simpson_polynomial () =
  (* Simpson is exact for cubics. *)
  let f x = (2. *. x *. x *. x) -. (x *. x) +. 3. in
  let exact = (0.5 *. 16.) -. (8. /. 3.) +. 6. in
  check_float ~tol:1e-12 "simpson cubic" exact (Integrate.simpson ~n:2 f ~a:0. ~b:2.)

let test_gauss_legendre_exactness () =
  (* n nodes integrate degree 2n-1 exactly. *)
  let f x = (x ** 9.) +. (4. *. (x ** 5.)) -. x in
  let exact = (1. /. 10. *. (2. ** 10. -. 1.)) +. (4. /. 6. *. (2. ** 6. -. 1.)) -. 1.5 in
  check_float ~tol:1e-9 "GL degree 9 with n=5" exact
    (Integrate.gauss_legendre ~n:5 f ~a:1. ~b:2.)

let test_adaptive_simpson_hard () =
  (* A peaked integrand. *)
  let f x = exp (-100. *. (x -. 0.5) ** 2.) in
  let exact = sqrt (Special.pi /. 100.) in
  check_float ~tol:1e-8 "adaptive peak" exact
    (Integrate.adaptive_simpson ~tol:1e-12 f ~a:(-5.) ~b:5.)

let test_semi_infinite () =
  check_float ~tol:1e-8 "int exp(-x)" 1.
    (Integrate.semi_infinite ~n:200 (fun x -> exp (-.x)) ~a:0.);
  check_float ~tol:1e-7 "int exp(-x) from 2" (exp (-2.))
    (Integrate.semi_infinite ~n:200 (fun x -> exp (-.x)) ~a:2.)

let test_gl_nodes_weights_sum () =
  List.iter
    (fun n ->
      let nodes = Integrate.gauss_legendre_nodes n in
      let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0. nodes in
      check_float ~tol:1e-12 (Printf.sprintf "weights sum n=%d" n) 2. total)
    [ 2; 8; 32; 64; 101 ]

(* --- Root finding ------------------------------------------------------- *)

let test_bisect_brent () =
  let f x = (x *. x) -. 2. in
  check_float ~tol:1e-10 "bisect sqrt2" (sqrt 2.) (Root.bisect f ~a:0. ~b:2.);
  check_float ~tol:1e-10 "brent sqrt2" (sqrt 2.) (Root.brent f ~a:0. ~b:2.);
  check_float ~tol:1e-10 "brent cos" (Special.pi /. 2.)
    (Root.brent cos ~a:1. ~b:2.)

let test_newton () =
  let f x = (x *. x *. x) -. 8. in
  let df x = 3. *. x *. x in
  check_float ~tol:1e-10 "newton cbrt8" 2. (Root.newton ~f ~df 3.)

(* Multi-root finding now goes through the certified solver; the
   fixed-density scan it replaced survives as its oracle. *)
let test_find_all_roots () =
  (* sin has roots at pi and 2 pi inside (1, 7). *)
  let roots = Root.roots_log sin ~a:1. ~b:7. in
  (match roots with
  | [ r1; r2 ] ->
    check_float ~tol:1e-12 "root pi" Special.pi r1;
    check_float ~tol:1e-12 "root 2pi" (2. *. Special.pi) r2
  | other -> Alcotest.failf "expected 2 roots, got %d" (List.length other));
  (* A cubic with 3 roots. *)
  let f x = (x -. 1.) *. (x -. 2.) *. (x -. 3.) in
  let roots = Root.roots_log f ~a:0.5 ~b:4. in
  Alcotest.(check int) "3 roots" 3 (List.length roots)

let test_find_all_roots_log () =
  let f x = log x in
  (match Oracle.Dense.find_all_roots_log ~n:200 f ~a:0.01 ~b:100. with
  | [ r ] -> check_float ~tol:1e-9 "log root at 1" 1. r
  | other -> Alcotest.failf "expected 1 root, got %d" (List.length other));
  match Root.roots_log f ~a:0.01 ~b:100. with
  | [ r ] -> check_float ~tol:1e-12 "roots_log: root at 1" 1. r
  | other ->
    Alcotest.failf "roots_log: expected 1 root, got %d" (List.length other)

(* The certified scan must find what a dense scan finds even where the
   coarse samples show no sign change: a band narrower than one coarse
   cell (48 cells over [1e-2, 1e2] are 0.19 wide in ln x), and three
   roots inside one cell. *)
let test_roots_log_narrow_band () =
  let f x =
    let u = log x -. 0.3 in
    1e-3 -. (u *. u)
  in
  match Root.roots_log f ~a:1e-2 ~b:1e2 with
  | [ lo; hi ] ->
    check_float ~tol:1e-12 "lower root" (exp (0.3 -. sqrt 1e-3)) lo;
    check_float ~tol:1e-12 "upper root" (exp (0.3 +. sqrt 1e-3)) hi
  | other -> Alcotest.failf "expected 2 roots, got %d" (List.length other)

let test_roots_log_close_roots () =
  let f x =
    let u = log x in
    (u -. 0.1) *. (u -. 0.15) *. (u -. 0.2)
  in
  let roots = Root.roots_log f ~a:1e-2 ~b:1e2 in
  Alcotest.(check int) "3 roots" 3 (List.length roots);
  List.iter2
    (fun want got -> check_float ~tol:1e-12 "root" (exp want) got)
    [ 0.1; 0.15; 0.2 ] roots

(* Relative tolerances: scaling the argument scales the roots. *)
let test_roots_log_scale_free () =
  let f x = (x -. 1.3) *. (x -. 2.9) in
  let base = Root.roots_log f ~a:0.01 ~b:100. in
  List.iter
    (fun lambda ->
      let scaled =
        Root.roots_log (fun x -> f (x *. lambda)) ~a:(0.01 /. lambda)
          ~b:(100. /. lambda)
      in
      List.iter2
        (fun r s ->
          let rel = abs_float ((s *. lambda) -. r) /. r in
          if rel > 1e-14 then
            Alcotest.failf "scale %g: root %.17g vs %.17g" lambda r
              (s *. lambda))
        base scaled)
    [ 1e-7; 1e3; 1e11 ]

let test_brent_no_bracket () =
  Alcotest.check_raises "no bracket"
    (Invalid_argument "Root.brent: endpoints do not bracket a root")
    (fun () -> ignore (Root.brent (fun x -> (x *. x) +. 1.) ~a:(-1.) ~b:1.))

(* --- RNG ----------------------------------------------------------------- *)

let test_rng_determinism () =
  let r1 = Rng.create ~seed:42 () in
  let r2 = Rng.create ~seed:42 () in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Rng.uniform r1) (Rng.uniform r2)
  done

let test_rng_uniform_range () =
  let r = Rng.create ~seed:7 () in
  for _ = 1 to 1000 do
    let u = Rng.uniform r in
    if u < 0. || u >= 1. then Alcotest.failf "uniform out of range: %g" u
  done

let test_rng_uniform_moments () =
  let r = Rng.create ~seed:11 () in
  let xs = Array.init 100_000 (fun _ -> Rng.uniform r) in
  let s = Stats.summarize xs in
  check_float ~tol:5e-3 "mean ~ 0.5" 0.5 s.Stats.mean;
  check_float ~tol:5e-3 "var ~ 1/12" (1. /. 12.) s.Stats.variance

let test_rng_normal_moments () =
  let r = Rng.create ~seed:13 () in
  let xs = Array.init 100_000 (fun _ -> Rng.normal r) in
  let s = Stats.summarize xs in
  check_float ~tol:2e-2 "mean ~ 0" 0. s.Stats.mean;
  check_float ~tol:2e-2 "stddev ~ 1" 1. s.Stats.stddev

let test_rng_normal_tails () =
  let r = Rng.create ~seed:17 () in
  let n = 200_000 in
  let count = ref 0 in
  for _ = 1 to n do
    if Rng.normal r > 1.6449 then incr count
  done;
  (* P(Z > 1.6449) = 5% *)
  let p = float_of_int !count /. float_of_int n in
  check_float ~tol:4e-3 "upper 5% tail" 0.05 p

let test_rng_int_below () =
  let r = Rng.create ~seed:19 () in
  let counts = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let k = Rng.int_below r 7 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 9_200 || c > 10_800 then
        Alcotest.failf "bucket %d count %d far from 10000" i c)
    counts

let test_rng_split_independent () =
  let r = Rng.create ~seed:23 () in
  let child = Rng.split r in
  let a = Array.init 1000 (fun _ -> Rng.uniform r) in
  let b = Array.init 1000 (fun _ -> Rng.uniform child) in
  (* Streams should differ. *)
  if Array.for_all2 (fun x y -> x = y) a b then
    Alcotest.fail "split stream identical to parent"

let test_rng_exponential () =
  let r = Rng.create ~seed:29 () in
  let xs = Array.init 100_000 (fun _ -> Rng.exponential r ~rate:2.) in
  let s = Stats.summarize xs in
  check_float ~tol:1e-2 "mean 1/rate" 0.5 s.Stats.mean

(* --- Stats ---------------------------------------------------------------- *)

let test_stats_basic () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float ~tol:1e-12 "mean" 3. (Stats.mean xs);
  check_float ~tol:1e-12 "variance" 2.5 (Stats.variance xs);
  let s = Stats.summarize xs in
  check_float ~tol:1e-12 "min" 1. s.Stats.min;
  check_float ~tol:1e-12 "max" 5. s.Stats.max;
  Alcotest.(check int) "n" 5 s.Stats.n

let test_stats_quantile () =
  let xs = [| 3.; 1.; 2.; 4. |] in
  check_float ~tol:1e-12 "q0" 1. (Stats.quantile xs 0.);
  check_float ~tol:1e-12 "q1" 4. (Stats.quantile xs 1.);
  check_float ~tol:1e-12 "median" 2.5 (Stats.quantile xs 0.5)

let test_wilson () =
  let lo, hi = Stats.wilson_interval ~successes:50 ~trials:100 ~z:1.96 in
  if lo >= 0.5 || hi <= 0.5 then Alcotest.fail "wilson must contain p-hat";
  if lo < 0.39 || hi > 0.61 then
    Alcotest.failf "wilson interval too wide: (%g, %g)" lo hi;
  (* Degenerate cases stay within [0,1]. *)
  let lo0, _ = Stats.wilson_interval ~successes:0 ~trials:10 ~z:1.96 in
  let _, hi1 = Stats.wilson_interval ~successes:10 ~trials:10 ~z:1.96 in
  if lo0 < 0. then Alcotest.fail "wilson lower < 0";
  if hi1 > 1. then Alcotest.fail "wilson upper > 1"

let test_histogram () =
  let xs = [| 0.1; 0.2; 0.55; 0.9; 1.5; -0.3 |] in
  let h = Stats.histogram xs ~bins:2 ~lo:0. ~hi:1. in
  Alcotest.(check (array int)) "histogram" [| 3; 3 |] h

let test_grid () =
  let xs = Grid.linspace ~lo:0. ~hi:1. ~n:5 in
  Alcotest.(check int) "linspace length" 5 (Array.length xs);
  check_float ~tol:1e-12 "linspace mid" 0.5 xs.(2);
  let ys = Grid.logspace ~lo:1. ~hi:100. ~n:3 in
  check_float ~tol:1e-9 "logspace mid" 10. ys.(1);
  let zs = Grid.arange ~lo:0. ~hi:1. ~step:0.25 in
  Alcotest.(check int) "arange length" 4 (Array.length zs)

(* --- Minimisation --------------------------------------------------------------- *)

let test_golden_section_quadratic () =
  let f x = ((x -. 1.3) ** 2.) +. 0.7 in
  let x, v = Minimize.golden_section f ~a:(-10.) ~b:10. in
  check_float ~tol:1e-6 "argmin" 1.3 x;
  check_float ~tol:1e-9 "min" 0.7 v

let test_maximize_concave () =
  let f x = -.((x -. 2.) ** 2.) +. 5. in
  let x, v = Minimize.maximize f ~a:0. ~b:4. in
  check_float ~tol:1e-6 "argmax" 2. x;
  check_float ~tol:1e-9 "max" 5. v

let test_grid_then_golden_multimodal () =
  (* Two humps; the global one is at x ~ 4. *)
  let f x = exp (-.((x -. 1.) ** 2.)) +. (1.5 *. exp (-.((x -. 4.) ** 2.))) in
  let x, _ = Minimize.grid_then_golden ~grid:60 f ~a:(-1.) ~b:6. in
  check_float ~tol:1e-3 "finds the global hump" 4. x

let test_minimize_validation () =
  match Minimize.golden_section (fun x -> x) ~a:1. ~b:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reversed bounds must be rejected"

(* --- Interpolation ----------------------------------------------------------- *)

let test_spline_interpolates_knots () =
  let xs = [| 0.; 1.; 2.5; 4.; 5. |] in
  let ys = Array.map (fun x -> sin x) xs in
  let s = Interp.Cubic_spline.create ~xs ~ys in
  Array.iteri
    (fun i x ->
      check_float ~tol:1e-12 (Printf.sprintf "knot %d" i) ys.(i)
        (Interp.Cubic_spline.eval s x))
    xs

let test_spline_accuracy_on_smooth_function () =
  let xs = Grid.linspace ~lo:0. ~hi:6.28 ~n:30 in
  let ys = Array.map sin xs in
  let s = Interp.Cubic_spline.create ~xs ~ys in
  Array.iter
    (fun x ->
      if abs_float (Interp.Cubic_spline.eval s x -. sin x) > 1e-4 then
        Alcotest.failf "spline error too large at %g" x)
    (Grid.linspace ~lo:0.1 ~hi:6.2 ~n:100)

let test_spline_reproduces_lines_exactly () =
  let xs = [| 0.; 1.; 3.; 7. |] in
  let ys = Array.map (fun x -> (2. *. x) -. 1.) xs in
  let s = Interp.Cubic_spline.create ~xs ~ys in
  List.iter
    (fun x ->
      check_float ~tol:1e-10 (Printf.sprintf "line at %g" x)
        ((2. *. x) -. 1.)
        (Interp.Cubic_spline.eval s x);
      check_float ~tol:1e-8 "slope" 2. (Interp.Cubic_spline.eval_deriv s x))
    [ 0.5; 2.; 5.; -1.; 9. ]

let test_spline_validation () =
  (match Interp.Cubic_spline.create ~xs:[| 0.; 1. |] ~ys:[| 0.; 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "two knots must be rejected");
  match Interp.Cubic_spline.create ~xs:[| 0.; 1.; 1. |] ~ys:[| 0.; 1.; 2. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing knots must be rejected"

let test_bilinear_exact_on_planes () =
  let xs = [| 0.; 1.; 2. |] and ys = [| 0.; 2. |] in
  let f x y = (3. *. x) -. y +. 0.5 in
  let values = Array.map (fun x -> Array.map (fun y -> f x y) ys) xs in
  let b = Interp.Bilinear.create ~xs ~ys ~values in
  List.iter
    (fun (x, y) ->
      match Interp.Bilinear.eval b ~x ~y with
      | Some v -> check_float ~tol:1e-12 "planar" (f x y) v
      | None -> Alcotest.fail "inside the grid")
    [ (0.5, 1.); (1.7, 0.3); (0., 0.); (2., 2.) ]

let test_bilinear_gaps_and_hull () =
  let values = [| [| 1.; nan |]; [| 3.; 4. |] |] in
  let b = Interp.Bilinear.create ~xs:[| 0.; 1. |] ~ys:[| 0.; 1. |] ~values in
  Alcotest.(check (option (float 0.))) "nan corner blocks" None
    (Interp.Bilinear.eval b ~x:0.5 ~y:0.5);
  Alcotest.(check (option (float 0.))) "outside hull" None
    (Interp.Bilinear.eval b ~x:1.5 ~y:0.5)

(* --- Property-based tests -------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"erf is odd" ~count:300
      (float_bound_exclusive 5.)
      (fun x -> abs_float (Special.erf (-.x) +. Special.erf x) < 1e-12);
    Test.make ~name:"erfc in [0,2]" ~count:300
      (float_range (-10.) 10.)
      (fun x ->
        let y = Special.erfc x in
        y >= 0. && y <= 2.);
    Test.make ~name:"normal cdf monotone" ~count:300
      (pair (float_range (-6.) 6.) (float_range (-6.) 6.))
      (fun (a, b) ->
        let a, b = if a <= b then (a, b) else (b, a) in
        Normal.cdf a <= Normal.cdf b +. 1e-15);
    Test.make ~name:"normal quantile inverts cdf" ~count:200
      (float_range (-4.) 4.)
      (fun x -> abs_float (Normal.quantile (Normal.cdf x) -. x) < 1e-7);
    Test.make ~name:"lognormal cdf+sf = 1" ~count:300
      (pair (float_range (-1.) 1.) (float_range 0.05 2.))
      (fun (mu, sigma) ->
        let d = Lognormal.create ~mu ~sigma in
        let x = exp mu in
        abs_float (Lognormal.cdf d x +. Lognormal.sf d x -. 1.) < 1e-12);
    Test.make ~name:"partial expectations sum to mean" ~count:300
      (triple (float_range (-1.) 1.) (float_range 0.05 1.5) (float_range 0.01 10.))
      (fun (mu, sigma, k) ->
        let d = Lognormal.create ~mu ~sigma in
        abs_float
          (Lognormal.partial_expectation_above d k
          +. Lognormal.partial_expectation_below d k
          -. Lognormal.mean d)
        < 1e-9 *. Lognormal.mean d);
    Test.make ~name:"brent finds bracketed root" ~count:200
      (pair (float_range (-3.) (-0.01)) (float_range 0.01 3.))
      (fun (a, b) ->
        let f x = x in
        abs_float (Root.brent f ~a ~b) < 1e-9);
    Test.make ~name:"quantile between min and max" ~count:200
      (pair (list_of_size (Gen.int_range 1 40) (float_range (-100.) 100.))
         (float_range 0. 1.))
      (fun (xs, p) ->
        match xs with
        | [] -> true
        | _ ->
          let arr = Array.of_list xs in
          let q = Stats.quantile arr p in
          let s = Stats.summarize arr in
          q >= s.Stats.min -. 1e-9 && q <= s.Stats.max +. 1e-9);
    Test.make ~name:"wilson contains point estimate" ~count:200
      (pair (int_range 0 50) (int_range 1 50))
      (fun (s, extra) ->
        let trials = s + extra in
        let lo, hi = Stats.wilson_interval ~successes:s ~trials ~z:1.96 in
        let p = float_of_int s /. float_of_int trials in
        lo <= p +. 1e-12 && hi >= p -. 1e-12);
    Test.make ~name:"gauss_legendre matches simpson on smooth f" ~count:100
      (pair (float_range (-2.) 2.) (float_range 0.1 3.))
      (fun (a, len) ->
        let b = a +. len in
        let f x = sin (2. *. x) +. (0.3 *. x *. x) in
        let gl = Integrate.gauss_legendre ~n:32 f ~a ~b in
        let si = Integrate.adaptive_simpson ~tol:1e-12 f ~a ~b in
        abs_float (gl -. si) < 1e-8);
  ]

let () =
  let props = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "numerics"
    [
      ( "special",
        [
          Alcotest.test_case "erf reference values" `Quick test_erf;
          Alcotest.test_case "erfc reference values" `Quick test_erfc;
          Alcotest.test_case "erfc symmetry" `Quick test_erfc_symmetry;
          Alcotest.test_case "erfc_inv round trip" `Quick test_erfc_inv;
          Alcotest.test_case "log_gamma" `Quick test_log_gamma;
          Alcotest.test_case "incomplete gamma" `Quick test_gamma_p_q;
          Alcotest.test_case "erfc matches the gamma oracle" `Quick
            test_erfc_oracle;
          Alcotest.test_case "erfc allocation" `Quick test_erfc_allocation;
        ] );
      ( "normal",
        [
          Alcotest.test_case "cdf values" `Quick test_normal_cdf;
          Alcotest.test_case "quantile inverts cdf" `Quick test_normal_quantile;
          Alcotest.test_case "pdf integrates to 1" `Quick
            test_normal_pdf_integrates;
        ] );
      ( "lognormal",
        [
          Alcotest.test_case "moments" `Quick test_lognormal_moments;
          Alcotest.test_case "partial expectations" `Quick
            test_lognormal_partial_expectations;
          Alcotest.test_case "cdf/pdf consistency" `Quick
            test_lognormal_cdf_pdf_consistency;
        ] );
      ( "integrate",
        [
          Alcotest.test_case "simpson exact on cubic" `Quick
            test_simpson_polynomial;
          Alcotest.test_case "gauss-legendre exactness" `Quick
            test_gauss_legendre_exactness;
          Alcotest.test_case "adaptive simpson peak" `Quick
            test_adaptive_simpson_hard;
          Alcotest.test_case "semi-infinite" `Quick test_semi_infinite;
          Alcotest.test_case "GL weights sum to 2" `Quick
            test_gl_nodes_weights_sum;
        ] );
      ( "root",
        [
          Alcotest.test_case "bisect and brent" `Quick test_bisect_brent;
          Alcotest.test_case "newton" `Quick test_newton;
          Alcotest.test_case "find_all_roots" `Quick test_find_all_roots;
          Alcotest.test_case "find_all_roots_log" `Quick
            test_find_all_roots_log;
          Alcotest.test_case "brent rejects non-bracket" `Quick
            test_brent_no_bracket;
          Alcotest.test_case "roots_log narrow band" `Quick
            test_roots_log_narrow_band;
          Alcotest.test_case "roots_log close roots" `Quick
            test_roots_log_close_roots;
          Alcotest.test_case "roots_log scale-free" `Quick
            test_roots_log_scale_free;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "uniform moments" `Quick test_rng_uniform_moments;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
          Alcotest.test_case "normal tails" `Quick test_rng_normal_tails;
          Alcotest.test_case "int_below uniformity" `Quick test_rng_int_below;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic moments" `Quick test_stats_basic;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "wilson interval" `Quick test_wilson;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "grids" `Quick test_grid;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "golden section quadratic" `Quick
            test_golden_section_quadratic;
          Alcotest.test_case "maximize concave" `Quick test_maximize_concave;
          Alcotest.test_case "grid+golden multimodal" `Quick
            test_grid_then_golden_multimodal;
          Alcotest.test_case "validation" `Quick test_minimize_validation;
        ] );
      ( "interp",
        [
          Alcotest.test_case "spline hits knots" `Quick
            test_spline_interpolates_knots;
          Alcotest.test_case "spline accuracy" `Quick
            test_spline_accuracy_on_smooth_function;
          Alcotest.test_case "spline reproduces lines" `Quick
            test_spline_reproduces_lines_exactly;
          Alcotest.test_case "spline validation" `Quick test_spline_validation;
          Alcotest.test_case "bilinear exact on planes" `Quick
            test_bilinear_exact_on_planes;
          Alcotest.test_case "bilinear gaps and hull" `Quick
            test_bilinear_gaps_and_hull;
        ] );
      ("properties", props);
    ]
