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

(* erf is 1 - erfc: the library computes only erfc. *)
let erf x = 1. -. Special.erfc x

let test_erf () =
  List.iter
    (fun (x, y) ->
      check_float ~tol:1e-12 (Printf.sprintf "erf %g" x) y (erf x);
      check_float ~tol:1e-12
        (Printf.sprintf "erf (-%g)" x)
        (-.y)
        (erf (-.x)))
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

(* --- Lognormal --------------------------------------------------------- *)

let test_lognormal_moments () =
  let d = Lognormal.create ~mu:0.3 ~sigma:0.4 in
  check_float ~tol:1e-12 "mean" (exp (0.3 +. (0.5 *. 0.16))) (Lognormal.mean d);
  (* Mean as an integral of x * pdf *)
  let by_quadrature =
    Oracle.Quad.semi_infinite ~n:400 (fun x -> x *. Lognormal.pdf d x) ~a:0.
  in
  check_float ~tol:1e-6 "mean by quadrature" (Lognormal.mean d) by_quadrature

(* The closed-form partial expectations the t2 utilities use are those
   of a GBM leg: from p0 = 1 over tau = 1 the price is lognormal with
   mu = drift - sigma^2 / 2. *)
let lognormal_leg ~mu ~sigma =
  Stochastic.Gbm.leg
    (Stochastic.Gbm.create ~mu:(mu +. (0.5 *. sigma *. sigma)) ~sigma)
    ~tau:1.

let test_lognormal_partial_expectations () =
  let d = Lognormal.create ~mu:0.1 ~sigma:0.5 in
  let leg = lognormal_leg ~mu:0.1 ~sigma:0.5 in
  List.iter
    (fun k ->
      let above =
        Oracle.Quad.semi_infinite ~n:600 (fun x -> x *. Lognormal.pdf d x) ~a:k
      in
      check_float ~tol:1e-6
        (Printf.sprintf "E[X 1(X>%g)]" k)
        above
        (Stochastic.Gbm.leg_pe_above leg ~k ~p0:1.);
      check_float ~tol:1e-6 "below + above = mean" (Lognormal.mean d)
        (Stochastic.Gbm.leg_pe_above leg ~k ~p0:1.
        +. Stochastic.Gbm.leg_pe_below leg ~k ~p0:1.))
    [ 0.5; 1.0; 1.5; 3.0 ]

let test_lognormal_cdf_pdf_consistency () =
  let d = Lognormal.create ~mu:(-0.2) ~sigma:0.3 in
  List.iter
    (fun k ->
      let cdf_by_quadrature =
        Oracle.Quad.adaptive_simpson ~tol:1e-12 (Lognormal.pdf d) ~a:1e-12 ~b:k
      in
      check_float ~tol:1e-8
        (Printf.sprintf "cdf %g" k)
        cdf_by_quadrature (1. -. Lognormal.sf d k))
    [ 0.5; 0.8; 1.2; 2.0 ]

(* --- Quadrature --------------------------------------------------------- *)

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
    (Oracle.Quad.adaptive_simpson ~tol:1e-12 f ~a:(-5.) ~b:5.)

let test_semi_infinite () =
  check_float ~tol:1e-8 "int exp(-x)" 1.
    (Oracle.Quad.semi_infinite ~n:200 (fun x -> exp (-.x)) ~a:0.);
  check_float ~tol:1e-7 "int exp(-x) from 2" (exp (-2.))
    (Oracle.Quad.semi_infinite ~n:200 (fun x -> exp (-.x)) ~a:2.)

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
  check_float ~tol:1e-10 "brent sqrt2" (sqrt 2.) (Root.brent f ~a:0. ~b:2.);
  check_float ~tol:1e-10 "brent cos" (Special.pi /. 2.)
    (Root.brent cos ~a:1. ~b:2.)

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

let test_rng_exponential () =
  let r = Rng.create ~seed:29 () in
  let xs = Array.init 100_000 (fun _ -> Rng.exponential r ~rate:2.) in
  let s = Stats.summarize xs in
  check_float ~tol:1e-2 "mean 1/rate" 0.5 s.Stats.mean

(* Golden streams, recorded from the generator as it stood when its
   state was a record of boxed [int64] fields and a [float option].  The
   state layout may change; the streams may not.  Floats are pinned by
   their bits. *)

let golden_create =
  [|
    0xd0764d4f4476689fL; 0x519e4174576f3791L; 0xfbe07cfb0c24ed8cL;
    0xb37d9f600cd835b8L; 0xcb231c3874846a73L; 0x968d9f004e50de7dL;
    0x201718ff221a3556L; 0x9ae94e070ed8cb46L; 0x352cf3daf095ccc7L;
    0xeeefd63219b4a0d4L; 0x8f3dfa98020e7942L; 0xd99b8e00792f360dL;
    0xae14e77054359b98L; 0x11ccbfbb36590dbdL; 0x672fcfd4efd0e0bdL;
    0x8bc6e858d0501168L; 0x367abb657f468b2eL; 0x0ce254eaf1b0177eL;
    0x939e7abb81f5d5fcL; 0x7784cb89e2481d7bL; 0x296566311008aaa4L;
    0xdcda5b94829765e3L; 0xa70de5b169e02435L; 0x8686e981e604aa1cL;
    0xd0dafde236ba2593L; 0x24896b7216d2d83cL; 0x6d172ed3e81a7e8cL;
    0xf2eda4bfdf254cbbL; 0x85ff42c6c6703f37L; 0xdf321e3788bd2cebL;
    0x15a0b07d583a481fL; 0xa318445d13be8320L; 0xb829333a229d7a38L;
    0x4775fb7db9c64a04L; 0xfbf66cab58c5ce18L; 0xb726234444b3460fL;
    0xc9eae0817bec39d6L; 0x680386963ebb4053L; 0x89eb358fd9821a96L;
    0xcca7e752da48d83dL; 0xda7120595706973dL; 0x2b5d999ce90ca71eL;
    0x77a22c4f769f4fdfL; 0x977a0e80f0435870L; 0x0c3657ed88978d97L;
    0x6a22c726e186d3a2L; 0xa4dee725ea8ec0a8L; 0x94220f4a76070359L;
    0xc1ad5450730123f8L; 0x3dfc82c5e51ecd63L; 0xbe6d5f7cba543f17L;
    0x7d650780ce30aa72L; 0x7405e883d0b9af7bL; 0xcf43ed6994a6d3b3L;
    0xa062272dbbd8cd61L; 0x2d058c37aeff1a86L; 0xbccf20f4077763adL;
    0x2ef7bb1d431319c6L; 0xa6d8f28a297ebba4L; 0x0f77d1b5e9830d8bL;
    0xa78f9c5a19171faaL; 0xf774ba509e10d54bL; 0xd7f2b08901a4d152L;
    0xf648960c3bbe8addL;
  |]

let golden_default =
  [|
    0x8eb2871b24ae0c00L; 0xfdd2c14d7560f757L; 0x17460bdf1e7c3333L;
    0x6ff7f624b0c6310fL; 0x6eaaa03fa515b2f2L; 0x640c127c1fdb9ea4L;
    0x4689b4686741e7d5L; 0xbd3c9c3434b611b7L; 0x1ba66261a0cbe2dcL;
    0xcfd6e67932b485c4L; 0xfd09728092f56da6L; 0x49a6a2f400c1de33L;
    0xf3e9fdd5d53c2b24L; 0x923c86363554f30eL; 0x19b298d84f3bd18bL;
    0x0819de3307f2680aL; 0x0248d81b52e43029L; 0x90c10633420e5419L;
    0x250bc7a635c7b547L; 0xf20a1f8bb688dce2L; 0x290ea67555f204d9L;
    0xf5ca3c1b3bb053cfL; 0x8b8a1547c1925013L; 0x47326ff7d463bba7L;
    0x9c5f92503437f9c3L; 0xe40a335f7ff01e73L; 0x09aed3a5544042fdL;
    0xf0557c4b8958c887L; 0xbd00a8dc9c5ba5a1L; 0xa6d1d4410cb9c231L;
    0xb0dd48ee4a2c7e26L; 0x7f43449640823823L; 0x55b85cfb6b90612dL;
    0x0e16bb4a860035f2L; 0x856b3e95cb1333b0L; 0xec03e189440cb1abL;
    0x8efc395bca4f9a0fL; 0x3a0c9054fdb8cef3L; 0x19268602224cf935L;
    0x5dc548a1b9d631eeL; 0x480662d2d2e22b15L; 0x7d0c9f8f3e7b5d3bL;
    0xb4bfde5f6cc7739dL; 0x4a0e9195127b80e9L; 0x1fcc98ebc0d87acfL;
    0xcc97c65ba45d881eL; 0x73fdea87eb7a16aaL; 0xfe506e89095198f2L;
    0x7b879d35d5a5a7bbL; 0x64f4ae396f79e1dfL; 0xd1af6b373ec5cd00L;
    0xdff1c13848babb49L; 0x4827ca90f043ba56L; 0xf7ce24958a212a8cL;
    0x9c7dc3db27f70725L; 0x369be79b01baecfeL; 0xdf24f8665b2f37d9L;
    0xc861c7ec1cef591dL; 0x016286f9ddda5e74L; 0x2c70c168681db0cfL;
    0x5e88f9bac0895855L; 0x3afcd7fac7a3131bL; 0x422fe528dca540e3L;
    0x3f5c8975bfddd298L;
  |]

let golden_stream0 =
  [|
    0x167674d8b56cef42L; 0x9fc979aa8e817460L; 0xf9780491fa7f0032L;
    0x629e9a5e32feb480L; 0x52f4bca431f5d2ceL; 0x5be20fe75312e8abL;
    0x1baf78e68c306d4bL; 0xd6920c153d18847cL; 0xa0ad1f9e3d6e585dL;
    0x3262207f8a91d21cL; 0x7769e9ed9d11a9a5L; 0xc8d6738fd66186faL;
    0x9d2dc5e9b8077215L; 0xbed6a60765f84753L; 0x05e310516095911fL;
    0x3f599836b4edee1cL; 0x6c080dfca892165bL; 0x1030453e3c0d60ebL;
    0x4f176b648d7f22f3L; 0xe31747904b90ff54L; 0x68f0a3c590612c61L;
    0xf36b45b71a8b182cL; 0x24698a5fe4d429e3L; 0xd2be9c0e3303528bL;
    0x37129654d51b01daL; 0xf87db477c1a2c79cL; 0x63086deff575b30aL;
    0x096b9641eb109816L; 0xdf2a8904771db7bbL; 0x6d992b273143b18eL;
    0x624058588e593aadL; 0xd8f89280a3cf41c4L; 0x79b1386995fcf16fL;
    0xc61b8e758149ccb4L; 0x515b105b56f08b18L; 0x9706fe6460abfb42L;
    0x6ba43dbf295440eeL; 0x6e95ef394d28612dL; 0x3d0345bff4f39301L;
    0x4e3d63baeba5fc21L; 0xf49a9ca6ea1c75c3L; 0x9bcb5309018605a3L;
    0xd26e06e63abae386L; 0x6fc2be3b75e221ddL; 0x2f18ea4851f73ebcL;
    0x8927ce2b5da080a7L; 0xb12810dc44421b63L; 0xa992294449eef7ecL;
    0x61937ffbff3254d1L; 0x1a98821e4de782faL; 0xd32dfb8895a42144L;
    0x30923faf3d2f7d40L; 0x9a9b94a47ed99cd4L; 0x14f0f9011c6c9f52L;
    0xb1b9c02e150b99ebL; 0x65468190d5e73a75L; 0x77900115db8ffe92L;
    0xa6f4e19913c7accaL; 0x8b8125abec79c805L; 0xfb6ef43f98daa631L;
    0x924a9ad819458e9bL; 0x7ea1671dce983ea3L; 0x1334a54219ad972cL;
    0x873fffe7ed67b183L;
  |]

let golden_stream1 =
  [|
    0x626b12c744be994bL; 0x5e40266958de9d54L; 0x3f8b05b0d854652dL;
    0x138cb3bb92e87435L; 0xaf4b356ae6bee05bL; 0x72d02ceeb6cf571cL;
    0x261f99cf133333d6L; 0x3cf438aed537e47bL; 0x1786c372934df089L;
    0x98bfdc14e9388f8bL; 0x850addc045ac0f8eL; 0x54a763be018c5983L;
    0xd1b032d165a1f823L; 0xb568cea1823e72d3L; 0x02e4a3533ab625f9L;
    0x906716faf0ab6236L; 0xe01a4f81208a54e1L; 0x782afd480e06bc5dL;
    0x640c22a94d41c48dL; 0x0bc0ce901cdd4a46L; 0xca0812cbbd2fb87dL;
    0xa8a0b04ed9bc94daL; 0x9e482145525e3a9eL; 0xbff184ee5237f10cL;
    0x5cdca6e94f9bf4feL; 0x2eeba7cf0a505c9aL; 0xd8177a985042510eL;
    0x0e71b26ebbcb0acfL; 0xb07078dc54d68612L; 0x75d0d3847f5bd6ceL;
    0x75cd7d75d1627af4L; 0xb8a6519084bebc94L; 0x96ef33ec5aa5bdd8L;
    0x2abfe20df108bb71L; 0x17ca8ffbbca3ec11L; 0x90dd75c905095043L;
    0x9718348549471e5cL; 0x11beaf0ec73a0dd7L; 0xafb88b4a1b2df615L;
    0x138dcdea720b29c6L; 0xa7303dac099c6d16L; 0x1a4451a063106c9dL;
    0x36db8907d9d2329eL; 0x37241f430f8b670bL; 0x76def17162601733L;
    0xe672a99e5a1b8a87L; 0x96861c9d91e78d78L; 0xc302b8f10989d893L;
    0xdbf859615aee16e7L; 0x7ac2e64d04cb10e4L; 0xe5a28456f556ea63L;
    0x2828a46a70d258a6L; 0x3ffa7665dce3da63L; 0x05116082f668b234L;
    0x6cf2385de251edd8L; 0x9f3bdb757cc1b3f2L; 0xc798f3177a67f9e7L;
    0xd77ff406234c7c85L; 0x9413ec4b8b59e339L; 0x40475b6c466bd321L;
    0x842f479278e195b5L; 0x25c70525a56ad689L; 0x8a9f0dedf6f907e9L;
    0xf018a92d2a7efec5L;
  |]

let golden_stream7 =
  [|
    0x08c3d1872026e929L; 0x15ed3766c9111508L; 0x83768f2a1eedeaddL;
    0xda8a09605499a68dL; 0x0334b1f6cf63b6f3L; 0x8aa635a53ac5fa5fL;
    0x7c89dc6457bafd33L; 0xb5a05d6862c61bc0L; 0xf49814b6722acdcaL;
    0x0871cf05f3dd04bfL; 0x3bf85d118b89ddf0L; 0x50916d0e7f6b5284L;
    0x18604fa1461b61ceL; 0x431a1c29da189aa5L; 0xe40abb210af02480L;
    0x0e24930cd67ae3e3L; 0x3dda49e774975430L; 0x85bf33e754bda0c2L;
    0x52e337b504c2afa9L; 0xe9b22dcdb943e20aL; 0x8a57b3d767129828L;
    0x48ad87b63cd6bd89L; 0x5b210fdfa7330d6bL; 0xa12fc025bf3f2a82L;
    0xedcea875fef7e8a3L; 0xfc3443445608bdc4L; 0x6af7f92d35346717L;
    0x0aa82649e58b9d85L; 0x6d0b45dd3b2b112dL; 0xdbfb2fa5ed1bc5a4L;
    0xe1d469164035628cL; 0xae9d88b64daf2d54L; 0xec863e3cc4e2d690L;
    0x1608fb966a64a888L; 0x4a488ef9b67220e0L; 0x28af7e944a3a316dL;
    0xd56274ba19a4c9e7L; 0x4870f74d66d2e8c1L; 0xb13e16f960c33346L;
    0x0e1de416e9ace8ceL; 0x1b1d1226b9d89dbeL; 0xee4c02930271636aL;
    0xde36ba17ffc06ee2L; 0x602891dfb2848f7eL; 0xea9d4115fa379c33L;
    0x03c28b9f979c23c1L; 0x05a908e5c143ecaaL; 0x96f9970899d43402L;
    0x68a1ade551378419L; 0xfcb7b4d859e26bb6L; 0x764879183b4b1b1bL;
    0xc6389b1daa449dbdL; 0xf6cb85922f0d8108L; 0x91549c8223604e59L;
    0xd086bdc21da3f55fL; 0x33bd541bd6d40583L; 0x793fe38898444419L;
    0x202716c972bca74aL; 0x6ba37f0247e99e97L; 0xf5eec4e9e854e2b5L;
    0x16db38d1ef114810L; 0x010e086ae2c20015L; 0xe753ffead6c2a11fL;
    0xa8ac6b4cf4b0b4eeL;
  |]

let golden_uniform =
  [|
    0x3fac583400555d20L; 0x3fc607e46efd274cL; 0x3fe6f66236761a8bL;
    0x3fdb5767da98c600L; 0x3feed64c7e5eaf20L; 0x3fddce16d89f08b0L;
    0x3fe72a3f366c43d4L; 0x3fd51c16d6b70078L; 0x3fef6f2fe9a27380L;
    0x3fb2c2b9fdd9c110L; 0x3fbd3ee9ebb95710L; 0x3fc6030d520cb4d4L;
    0x3fe77b7be0c5c218L; 0x3fbcf3305d746a18L; 0x3fdfa81a3c707220L;
    0x3fb8e718927f54e0L; 0x3fc4d715c36609b0L; 0x3fc79b5723896154L;
    0x3fbc2503d28c43d0L; 0x3fe9472b3ed478d6L; 0x3fe59ead63f7dbb7L;
    0x3fdaaa679ad7957cL; 0x3fe95c9c27403c41L; 0x3fe0fcdac4de4468L;
  |]

let golden_exponential =
  [|
    0x3fe42369af8397e1L; 0x3f8ccec413291ed8L; 0x3ff4523753566b40L;
    0x3fc25429861fce54L; 0x3ffc06d865b55163L; 0x4001a1d1478b2293L;
    0x3fc88bfc952a479eL; 0x3fdc2f9a1add6914L; 0x3fdcca82073ad802L;
    0x3fdecb0de73506dcL; 0x3ff3a03b680f92b8L; 0x3f948a89228af287L;
    0x3fd1d9663ec2544eL; 0x3fb16406664e1f37L; 0x3fa00497842ba48dL;
    0x3fc5df16c1545eeaL; 0x3fd90d3167623b85L; 0x3ff3f36730308d90L;
    0x3feb61ff688bee40L; 0x3fe41a48edbde40aL; 0x3fe3c640554db0a3L;
    0x3fe9939d4362aa10L; 0x3fba7c43083e0414L; 0x3fc99faa0b4abf60L;
  |]

let golden_int_below_7 =
  [| 1; 6; 5; 5; 4; 3; 5; 1; 5; 0; 3; 5; 2; 0; 2; 0;
    0; 1; 2; 4; 3; 6; 6; 6; 6; 2; 1; 3; 1; 5; 2; 0;
    3; 5; 5; 0; 3; 3; 3; 0; 4; 4; 4; 0; 3; 0; 6; 3;
    0; 5; 6; 0; 5; 4; 6; 0; 2; 4; 2; 6; 0; 3; 0; 2; |]

let golden_normal =
  [|
    0x3fb95b61a55f7cc5L; 0x3fe38b6c63b533a8L; 0xbf9ed37ebfac1326L;
    0x3f9d4ff471eba0c0L; 0xbfd0b6c1ab850c9fL; 0x3ffd35cef244e58cL;
    0xbfefd3298a0e96d5L; 0xbfb6f1c88309bca7L; 0xbfe5aeeb5306ee91L;
    0x3ff4c5ace6d1aae6L; 0xbfaadc43116fbac9L; 0x3fe875adaa3fe507L;
    0xbfe89a6ce97ad09fL; 0xbfd361f62c8cb089L; 0x3fc5685d606fe839L;
    0x3ffca29f9540e5aaL; 0xbff9b5d2e8325555L; 0x4002ee873cbedd3dL;
    0x3fe87d9060869bffL; 0xbff721cc9a714f63L; 0x3ff792da6f15b568L;
    0xbfa7e07b067b15d2L; 0x3fe0e2e20fa936bdL; 0x3ff12c7ca16bcb38L;
  |]

let check_bits name want got =
  Array.iteri
    (fun i w ->
      if not (Int64.equal w got.(i)) then
        Alcotest.failf "%s[%d]: got 0x%016Lx, want 0x%016Lx" name i got.(i) w)
    want

let bits64s r n = Array.init n (fun _ -> Rng.bits64 r)
let float_bits f r n = Array.init n (fun _ -> Int64.bits_of_float (f r))

let test_rng_golden_bits () =
  check_bits "create 42" golden_create (bits64s (Rng.create ~seed:42 ()) 64);
  check_bits "create default" golden_default (bits64s (Rng.create ()) 64);
  check_bits "stream 0" golden_stream0
    (bits64s (Rng.of_stream ~seed:42 ~stream:0 ()) 64);
  check_bits "stream 1" golden_stream1
    (bits64s (Rng.of_stream ~seed:42 ~stream:1 ()) 64);
  check_bits "stream 7" golden_stream7
    (bits64s (Rng.of_stream ~seed:42 ~stream:7 ()) 64)

let test_rng_golden_draws () =
  check_bits "uniform" golden_uniform
    (float_bits Rng.uniform (Rng.create ~seed:7 ()) 24);
  check_bits "exponential" golden_exponential
    (float_bits
       (fun r -> Rng.exponential r ~rate:2.)
       (Rng.create ~seed:29 ()) 24);
  let r = Rng.create ~seed:19 () in
  Alcotest.(check (array int))
    "int_below 7" golden_int_below_7
    (Array.init 64 (fun _ -> Rng.int_below r 7))

(* Polar pairs, each followed by one raw draw, as the vectors were
   recorded; the second deviate of a pair is the cached one. *)
let test_rng_golden_normal () =
  let r = Rng.create ~seed:13 () in
  let got = Array.make 24 0L in
  for i = 0 to 11 do
    let z0 = Rng.normal r in
    let z1 = Rng.normal r in
    ignore (Rng.bits64 r);
    got.(2 * i) <- Int64.bits_of_float z0;
    got.((2 * i) + 1) <- Int64.bits_of_float z1
  done;
  check_bits "normal pairs" golden_normal got

(* A draw reads and writes the state in place, so it allocates at most
   its boxed result (2 words): measured against a call that returns a
   constant, which pays the same accumulation.  Seeding computes the
   splitmix64 words unboxed, so a new generator is its 40-byte buffer
   (7 words) plus the boxed key and optional seed, ~12 words; the bound
   fails if the splitmix64 state is boxed again (38 to 45 words). *)
let test_rng_allocation () =
  let r = Rng.create ~seed:3 () in
  let sink = ref 0. in
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      sink := !sink +. f r
    done;
    (Gc.minor_words () -. w0) /. 10_000.
  in
  let base = words (fun _ -> 0.5) in
  let uniform = words Rng.uniform -. base in
  let normal = words Rng.normal -. base in
  if uniform > 2. then
    Alcotest.failf "Rng.uniform allocates %.2f words per call" uniform;
  if normal > 2. then
    Alcotest.failf "Rng.normal allocates %.2f words per call" normal;
  let seeding f =
    let w0 = Gc.minor_words () in
    for i = 1 to 10_000 do
      ignore (Sys.opaque_identity (f i))
    done;
    (Gc.minor_words () -. w0) /. 10_000.
  in
  let create = seeding (fun seed -> Rng.create ~seed ()) in
  let of_stream = seeding (fun stream -> Rng.of_stream ~seed:3 ~stream ()) in
  if create > 16. then
    Alcotest.failf "Rng.create allocates %.2f words per call" create;
  if of_stream > 16. then
    Alcotest.failf "Rng.of_stream allocates %.2f words per call" of_stream;
  Alcotest.(check bool) "finite" true (Float.is_finite !sink)

(* --- Stats ---------------------------------------------------------------- *)

let test_stats_basic () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  let s = Stats.summarize xs in
  check_float ~tol:1e-12 "mean" 3. s.Stats.mean;
  check_float ~tol:1e-12 "variance" 2.5 s.Stats.variance;
  check_float ~tol:1e-12 "min" 1. s.Stats.min;
  check_float ~tol:1e-12 "max" 5. s.Stats.max;
  Alcotest.(check int) "n" 5 s.Stats.n

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

let test_grid () =
  let xs = Grid.linspace ~lo:0. ~hi:1. ~n:5 in
  Alcotest.(check int) "linspace length" 5 (Array.length xs);
  check_float ~tol:1e-12 "linspace mid" 0.5 xs.(2);
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
      (fun x -> abs_float (erf (-.x) +. erf x) < 1e-12);
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
    Test.make ~name:"lognormal cdf+sf = 1" ~count:300
      (pair (float_range (-1.) 1.) (float_range 0.05 2.))
      (fun (mu, sigma) ->
        (* The lognormal law of a GBM step from p0 = 1 over tau = 1. *)
        let g = Stochastic.Gbm.create ~mu:(mu +. (0.5 *. sigma *. sigma)) ~sigma in
        let x = exp mu in
        abs_float
          (Stochastic.Gbm.cdf g ~x ~p0:1. ~tau:1.
          +. Stochastic.Gbm.sf g ~x ~p0:1. ~tau:1. -. 1.)
        < 1e-12);
    Test.make ~name:"partial expectations sum to mean" ~count:300
      (triple (float_range (-1.) 1.) (float_range 0.05 1.5) (float_range 0.01 10.))
      (fun (mu, sigma, k) ->
        let d = Lognormal.create ~mu ~sigma in
        let leg = lognormal_leg ~mu ~sigma in
        abs_float
          (Stochastic.Gbm.leg_pe_above leg ~k ~p0:1.
          +. Stochastic.Gbm.leg_pe_below leg ~k ~p0:1.
          -. Lognormal.mean d)
        < 1e-9 *. Lognormal.mean d);
    Test.make ~name:"brent finds bracketed root" ~count:200
      (pair (float_range (-3.) (-0.01)) (float_range 0.01 3.))
      (fun (a, b) ->
        let f x = x in
        abs_float (Root.brent f ~a ~b) < 1e-9);
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
        let si = Oracle.Quad.adaptive_simpson ~tol:1e-12 f ~a ~b in
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
          Alcotest.test_case "log_gamma" `Quick test_log_gamma;
          Alcotest.test_case "incomplete gamma" `Quick test_gamma_p_q;
          Alcotest.test_case "erfc matches the gamma oracle" `Quick
            test_erfc_oracle;
          Alcotest.test_case "erfc allocation" `Quick test_erfc_allocation;
        ] );
      ( "normal",
        [
          Alcotest.test_case "cdf values" `Quick test_normal_cdf;
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
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential;
          Alcotest.test_case "golden bits64 streams" `Quick
            test_rng_golden_bits;
          Alcotest.test_case "golden draws" `Quick test_rng_golden_draws;
          Alcotest.test_case "golden normal pairs and copy" `Quick
            test_rng_golden_normal;
          Alcotest.test_case "allocation" `Quick test_rng_allocation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic moments" `Quick test_stats_basic;
          Alcotest.test_case "wilson interval" `Quick test_wilson;
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
          Alcotest.test_case "bilinear exact on planes" `Quick
            test_bilinear_exact_on_planes;
          Alcotest.test_case "bilinear gaps and hull" `Quick
            test_bilinear_gaps_and_hull;
        ] );
      ("properties", props);
    ]
