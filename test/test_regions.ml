(* The certified region solver (Numerics.Root.roots_log behind
   Swap.Intervals.positive_log) against the fixed-density scan it
   replaced (Oracle.Dense), at every site that computes a continuation
   region, plus the two properties the solver's relative tolerance and
   the law-weighted quadrature restore: homogeneity in the price scale,
   and a finite feasible band where the law is narrow.

   Each site is rebuilt from its public pieces: the net utility whose
   positive set it reports, its scan domain, and the cell count of the
   scan it used before.  The solver must report the same number of
   intervals, with every endpoint within 1e-10 relative.  Optionality's
   regions are the Cutoff and AC3 bands, so those two sites cover it.

   One input is exempt: Fig. 6's mu = 0.01 panel, where mu = r_B.  There
   Bob's Eq. 21 net utility below the band is e^{3 (mu - r_B) tau_b} - 1
   times the price, which cancels to rounding noise, and the dense scan
   itself reports several noise intervals.  On that panel a t2 region is
   checked through what the model reads from it: its transition mass
   and its Eq. 31 success rate must agree within 1e-12. *)

open Swap

let rel_close ~tol a b =
  a = b || abs_float (a -. b) <= tol *. Float.max (abs_float a) (abs_float b)

(* Every disagreement of one test case is collected and reported at its
   end, with the number of comparisons made. *)
let mismatches = ref []
let checks = ref 0

let mismatch fmt = Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt

let reported f () =
  mismatches := [];
  checks := 0;
  f ();
  match List.rev !mismatches with
  | [] -> ()
  | ms ->
    Alcotest.failf "%d of %d comparisons disagree:\n%s" (List.length ms) !checks
      (String.concat "\n" ms)

let region_equal solved dense =
  let s = Intervals.intervals solved and d = Intervals.intervals dense in
  List.length s = List.length d
  && List.for_all2
       (fun (a : Intervals.interval) (b : Intervals.interval) ->
         rel_close ~tol:1e-10 a.lo b.lo && rel_close ~tol:1e-10 a.hi b.hi)
       s d

let hull_equal solved dense =
  match (solved, Intervals.hull dense) with
  | None, None -> true
  | Some (a, b), Some (c, d) ->
    rel_close ~tol:1e-10 a c && rel_close ~tol:1e-10 b d
  | _ -> false

(* [dense n] is the site's region from an n-cell scan.  The solver must
   match the scan at the site's old cell count or, where that scan is
   too coarse to see a region at all, one 8 times denser.  The P* sites
   need this: the solver refines down to 1/768 of the domain while their
   old scans stopped at 1/160 or 1/120, too coarse for a feasible band
   1.7% wide (see [test_narrow_feasible_band]). *)
let agree ~what ~equal ~render ~solved ~dense ~cells =
  incr checks;
  let coarse = dense cells in
  if not (equal solved coarse || equal solved (dense (8 * cells))) then
    mismatch "%s: solver %s, %d-cell scan %s" what (render solved) cells
      (Intervals.to_string coarse)

let same_region = agree ~equal:region_equal ~render:Intervals.to_string

let same_hull =
  agree ~equal:hull_equal ~render:(function
    | None -> "none"
    | Some (lo, hi) -> Printf.sprintf "(%.17g, %.17g)" lo hi)

(* What Eqs. 25-31 read from a t2 region. *)
let same_reading ~what (p : Params.t) ~p_star ~solved ~dense =
  incr checks;
  let mass set = Utility.transition_mass p ~tau:p.tau_a ~p0:p.p0 set in
  let sr set =
    Success.analytic_given p ~k3:(Cutoff.p_t3_low p ~p_star) ~band:set
  in
  if abs_float (mass solved -. mass dense) > 1e-12
     || abs_float (sr solved -. sr dense) > 1e-12
  then
    mismatch "%s: mass %.17g vs %.17g, SR %.17g vs %.17g" what
      (mass solved) (mass dense) (sr solved) (sr dense)

(* --- the sites ---------------------------------------------------------- *)

(* A t2 site: its reported region, its net utility and the old cell
   count; the domain is always Cutoff.scan_domain. *)
type t2_site = {
  name : string;
  cells : int;
  solved : Intervals.t;
  net : float -> float;
}

let minus_stop cont x = cont ~p_t2:x -. x

(* The frictions the variant sites are exercised with, scaled with the
   price level so that every input stays a price-homogeneous game. *)
type frictions = {
  q : float;  (** symmetric collateral *)
  fee : float;
  yield_b : float;
  delay : float;
  spread : float;  (** half-width of the two-type belief on alpha *)
}

let default_frictions (p : Params.t) =
  {
    q = 0.25 *. p.p0;
    fee = 0.02 *. p.p0;
    yield_b = 0.002;
    delay = 1.;
    spread = 0.1;
  }

let belief_around alpha spread =
  Bayesian.belief [ (0.5, alpha -. spread); (0.5, alpha +. spread) ]

let t2_sites ?(generic = true) (p : Params.t) fr ~p_star =
  let k3 = Cutoff.p_t3_low p ~p_star in
  let coll = Collateral.symmetric p ~q:fr.q in
  let fees = Fees.create p ~fee_a:fr.fee ~fee_b:fr.fee in
  let staking = Staking.create p ~yield_a:0. ~yield_b:fr.yield_b in
  let margins = Margins.create p ~delay_t2:fr.delay ~delay_t3:fr.delay in
  let belief_on_alice = belief_around p.alice.alpha fr.spread in
  let model = Generic_model.gbm p in
  [
    { name = "Cutoff.p_t2_band"; cells = 600;
      solved = Cutoff.p_t2_band p ~p_star;
      net = minus_stop (Utility.b_t2_cont p ~p_star ~k3) };
    { name = "Collateral.cont_set_t2"; cells = 800;
      solved = Collateral.cont_set_t2 coll ~p_star;
      net = minus_stop (Collateral.b_t2_cont coll ~p_star) };
    { name = "Ac3.bob_band"; cells = 600; solved = Ac3.bob_band p ~p_star;
      net = minus_stop (Utility.b_t2_cont p ~p_star ~k3:0.) };
    { name = "Bayesian.p_t2_band_mixed"; cells = 600;
      solved = Bayesian.p_t2_band_mixed p ~belief_on_alice ~p_star;
      net = minus_stop (Bayesian.b_t2_cont_mixed p ~belief_on_alice ~p_star) };
    { name = "Fees.p_t2_band"; cells = 600;
      solved = Fees.p_t2_band fees ~p_star;
      net = (fun x -> Fees.b_t2_cont fees ~p_star ~p_t2:x -. (fees.notional *. x)) };
    { name = "Staking.p_t2_band"; cells = 600;
      solved = Staking.p_t2_band staking ~p_star;
      net = minus_stop (Staking.b_t2_cont staking ~p_star) };
    { name = "Margins.p_t2_band"; cells = 600;
      solved = Margins.p_t2_band margins ~p_star;
      net = minus_stop (Margins.b_t2_cont margins ~p_star) };
  ]
  @
  if generic then
    [
      { name = "Generic_model.p_t2_band"; cells = 400;
        solved = Generic_model.p_t2_band p model ~p_star;
        net = minus_stop (Generic_model.b_t2_cont p model ~p_star) };
    ]
  else []

let check_t2_sites ?generic ?(exempt = false) ~label p fr ~p_star =
  List.iter
    (fun site ->
      let a, b = Cutoff.scan_domain p ~p_star in
      let dense n = Oracle.Dense.region_log ~n site.net ~a ~b in
      let what = Printf.sprintf "%s at %s, P* = %g" site.name label p_star in
      if exempt then
        same_reading ~what p ~p_star ~solved:site.solved
          ~dense:(dense site.cells)
      else same_region ~what ~solved:site.solved ~dense ~cells:site.cells)
    (t2_sites ?generic p fr ~p_star)

(* The P* sites: each feasible-rate region against a dense scan of its
   own net function.  [quad_nodes] is passed to both sides alike. *)
let check_p_star_sites ?quad_nodes ~label (p : Params.t) fr =
  let a, b = Cutoff.p_star_domain p in
  let dense f n = Oracle.Dense.region_log ~n f ~a ~b in
  let what site = Printf.sprintf "%s at %s" site label in
  let coll = Collateral.symmetric p ~q:fr.q in
  let fees = Fees.create p ~fee_a:fr.fee ~fee_b:fr.fee in
  let belief_on_bob = belief_around p.bob.alpha fr.spread in
  same_region ~what:(what "Cutoff.p_star_band")
    ~solved:(Cutoff.p_star_band ?quad_nodes p)
    ~cells:160
    ~dense:
      (dense (fun p_star ->
           Utility.a_t1_cont ?quad_nodes p ~p_star
             ~k3:(Cutoff.p_t3_low p ~p_star)
             ~band:(Cutoff.p_t2_band p ~p_star)
           -. p_star));
  same_region ~what:(what "Collateral.initiation_set (Alice)")
    ~solved:
      (Collateral.initiation_set ~rule:Collateral.Alice_only ?quad_nodes coll)
    ~cells:120
    ~dense:
      (dense (fun p_star ->
           Collateral.a_t1_cont ?quad_nodes coll ~p_star
           -. Collateral.a_t1_stop coll ~p_star));
  same_region ~what:(what "Collateral.initiation_set (Bob)")
    ~solved:
      (Collateral.initiation_set ~rule:Collateral.Bob_only ?quad_nodes coll)
    ~cells:120
    ~dense:
      (dense (fun p_star ->
           Collateral.b_t1_cont ?quad_nodes coll ~p_star
           -. Collateral.b_t1_stop coll));
  same_hull ~what:(what "Ac3.feasible_band")
    ~solved:(Ac3.feasible_band ?quad_nodes p)
    ~cells:120
    ~dense:
      (dense (fun p_star ->
           Utility.a_t1_cont ?quad_nodes p ~p_star ~k3:0.
             ~band:(Ac3.bob_band p ~p_star)
           -. p_star));
  same_hull ~what:(what "Bayesian.p_star_band_mixed")
    ~solved:(Bayesian.p_star_band_mixed ?quad_nodes p ~belief_on_bob)
    ~cells:120
    ~dense:
      (dense (fun p_star ->
           Bayesian.a_t1_cont_mixed ?quad_nodes p ~belief_on_bob ~p_star
           -. p_star));
  same_hull ~what:(what "Fees.p_star_band")
    ~solved:(Fees.p_star_band ?quad_nodes fees)
    ~cells:120
    ~dense:(dense (fun p_star -> Fees.a_t1_net ?quad_nodes fees ~p_star))

(* --- input sets --------------------------------------------------------- *)

let test_fig6_panels () =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (_, variants) ->
      List.iter
        (fun (v : Sensitivity.variant) ->
          if not (Hashtbl.mem seen v.label) then begin
            Hashtbl.add seen v.label ();
            let p = v.params in
            let fr = default_frictions p in
            let exempt = p.mu = p.bob.r in
            List.iter
              (fun p_star ->
                check_t2_sites ~exempt ~label:v.label p fr ~p_star)
              [ 1.2; 1.6; 2.; 2.4; 3. ];
            check_p_star_sites ~label:v.label p fr
          end)
        variants)
    (Sensitivity.fig6_panels ())

(* Fig. 7: symmetric collateral, where Bob's t2 set has one or three
   roots: the 21 x 21 grid over Q in [0, 2] and P* in [1.2, 3.2], plus
   the strip Q in [0.01, 0.06] below its first step, where the three-root
   sets (0, r1) u (r2, r3) live. *)
let test_fig7_grid () =
  let p = Params.defaults in
  let qs =
    Array.append
      (Numerics.Grid.linspace ~lo:0. ~hi:2. ~n:21)
      (Numerics.Grid.linspace ~lo:0.01 ~hi:0.06 ~n:6)
  in
  let p_stars = Numerics.Grid.linspace ~lo:1.2 ~hi:3.2 ~n:21 in
  let three_roots = ref 0 in
  Array.iter
    (fun q ->
      let coll = Collateral.symmetric p ~q in
      Array.iter
        (fun p_star ->
          let solved = Collateral.cont_set_t2 coll ~p_star in
          let a, b = Cutoff.scan_domain p ~p_star in
          let net = minus_stop (Collateral.b_t2_cont coll ~p_star) in
          let dense n = Oracle.Dense.region_log ~n net ~a ~b in
          let roots =
            List.fold_left
              (fun n (iv : Intervals.interval) ->
                n + Bool.to_int (iv.lo > 0.) + Bool.to_int (iv.hi < infinity))
              0 (Intervals.intervals solved)
          in
          if roots = 3 then incr three_roots;
          same_region
            ~what:
              (Printf.sprintf "Collateral.cont_set_t2 at Q = %g, P* = %g" q
                 p_star)
            ~solved ~dense ~cells:800)
        p_stars)
    qs;
  (* The grid must reach into the three-root regime it is there for. *)
  if !three_roots = 0 then Alcotest.fail "no three-root set on the Fig. 7 grid"

(* Seeded vectors inside Params.validate, spanning price levels from
   1e-3 to 1e3.  The P* sites, whose every evaluation solves a t2 region
   and a quadrature, run on one vector in four with 32 nodes. *)
let random_params rng =
  (* One draw per binding, in order: record fields are evaluated in an
     unspecified order. *)
  let u lo hi = lo +. ((hi -. lo) *. Numerics.Rng.uniform rng) in
  let agent () =
    let alpha = u 0.02 0.8 in
    { Params.alpha; r = u 0.002 0.03 }
  in
  let alice = agent () in
  let bob = agent () in
  let tau_a = u 0.5 12. in
  let tau_b = u 0.5 12. in
  let eps_b = u 0.05 0.95 *. tau_b in
  let p0 = exp (u (log 1e-3) (log 1e3)) in
  let mu = u (-0.02) 0.02 in
  let sigma = u 0.02 0.4 in
  let p : Params.t = { alice; bob; tau_a; tau_b; eps_b; p0; mu; sigma } in
  match Params.validate p with
  | Ok () -> p
  | Error e -> Alcotest.failf "generated invalid params: %s" e

let test_seeded_vectors () =
  let rng = Numerics.Rng.create ~seed:20260417 () in
  for i = 0 to 199 do
    let p = random_params rng in
    let u lo hi = lo +. ((hi -. lo) *. Numerics.Rng.uniform rng) in
    let ratio = u 0.6 1.6 in
    let q = u 0. 1. *. p.p0 in
    let fee = u 0. 0.05 *. p.p0 in
    let yield_b = u 0. 0.004 in
    let delay = u 0. 3. in
    let fr = { q; fee; yield_b; delay; spread = u 0. 0.2 } in
    let label = Printf.sprintf "vector %d (%s)" i (Params.to_string p) in
    check_t2_sites ~generic:(i mod 4 = 0) ~label p fr ~p_star:(ratio *. p.p0);
    if i mod 4 = 0 then check_p_star_sites ~quad_nodes:32 ~label p fr
  done

(* --- price-scale homogeneity -------------------------------------------- *)

(* The GBM game is homogeneous of degree one in price: scaling p0 and P*
   by lambda scales every cutoff and band by lambda, which Quote_table
   relies on.  Absolute root tolerances (1e-13) broke this at small
   lambda: at 1e-11 the Eq. 29 band moved by 1.3e-4 relative and the
   t2 band's lower edge by 3e-4; the quadrature's semi-infinite map
   (x = a + t / (1 - t)) also had a fixed unit scale.  With relative
   tolerances the worst of the four endpoints over these scales moves
   by 9.7e-15 (at 1e-10): rounding in the net utilities, not tolerance. *)
let test_price_scale_homogeneity () =
  let p = Params.defaults in
  let bands lambda =
    let q = Params.with_p0 p (p.p0 *. lambda) in
    let eq29 = Option.get (Cutoff.p_star_band_endpoints q) in
    let t2 = Option.get (Cutoff.p_t2_band_endpoints q ~p_star:(2. *. lambda)) in
    let scale (lo, hi) = (lo /. lambda, hi /. lambda) in
    (scale eq29, scale t2)
  in
  let (lo, hi), (lo2, hi2) = bands 1. in
  List.iter
    (fun lambda ->
      let (l, h), (l2, h2) = bands lambda in
      List.iter
        (fun (what, want, got) ->
          if not (rel_close ~tol:2.5e-14 want got) then
            Alcotest.failf "%s at scale %g: %.17g vs %.17g (rel %.2g)" what
              lambda want got
              (abs_float (got -. want) /. want))
        [
          ("Eq. 29 low", lo, l);
          ("Eq. 29 high", hi, h);
          ("t2 low", lo2, l2);
          ("t2 high", hi2, h2);
        ])
    [ 1e-11; 1e-10; 1e-9; 1e-8; 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1;
      10.; 1e2; 1e3; 1e4 ]

(* --- a wide band around a narrow law ------------------------------------ *)

(* A vector that passes Params.validate and whose tau_a-law from p0 is
   narrow (sigma sqrt tau_a = 0.03) next to the t2 bands it integrates
   over.  Quadrature over the band's own width put almost no node where
   the law has its mass, so a_t1_net / P* swung between -0.5 and +0.2
   over P* in [0.46, 0.60] and the feasible band came out unbounded
   above, (0.0426, inf).  Integrated in the law's own coordinate, the
   net is a flat -0.2213 P* there and the band is (0.04262, 0.07883). *)
let narrow_law : Params.t =
  {
    alice = { alpha = 0.49125; r = 0.0154502 };
    bob = { alpha = 0.52769; r = 0.0113712 };
    tau_a = 1.12274;
    tau_b = 7.05312;
    eps_b = 5.76687;
    p0 = 0.0561513;
    mu = 0.0114882;
    sigma = 0.0281903;
  }

let test_narrow_law () =
  let p = narrow_law in
  Alcotest.(check bool) "valid" true (Params.validate p = Ok ());
  (match Cutoff.p_star_band_endpoints p with
  | Some (lo, hi) ->
    Alcotest.(check (float 1e-5)) "band low" 0.04262 lo;
    Alcotest.(check (float 1e-5)) "band high" 0.07883 hi
  | None -> Alcotest.fail "no feasible band");
  Array.iter
    (fun p_star ->
      let net =
        Utility.a_t1_cont p ~p_star ~k3:(Cutoff.p_t3_low p ~p_star)
          ~band:(Cutoff.p_t2_band p ~p_star)
        -. p_star
      in
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "a_t1_net / P* at %g" p_star)
        (-0.2213) (net /. p_star))
    (Numerics.Grid.linspace ~lo:0.46 ~hi:0.60 ~n:8)

(* A feasible band narrower than one cell of the old 160-point Eq. 29
   scan, found on a seeded vector with the 8x fallback above switched
   off (parameters rounded to 6 digits).  The old scan reported no
   feasible rate here; the band is real: Eq. 31 SR is 0.92 inside it,
   and a 1280-cell scan finds the same band as the solver. *)
let narrow_band : Params.t =
  {
    alice = { alpha = 0.146074; r = 0.0173798 };
    bob = { alpha = 0.477372; r = 0.00507608 };
    tau_a = 7.16021;
    tau_b = 10.4022;
    eps_b = 6.54009;
    p0 = 0.00369946;
    mu = 0.0139071;
    sigma = 0.0405445;
  }

let test_narrow_feasible_band () =
  let p = narrow_band in
  Alcotest.(check bool) "valid" true (Params.validate p = Ok ());
  let net p_star =
    Utility.a_t1_cont p ~p_star ~k3:(Cutoff.p_t3_low p ~p_star)
      ~band:(Cutoff.p_t2_band p ~p_star)
    -. p_star
  in
  let a, b = Cutoff.p_star_domain p in
  let solved = Cutoff.p_star_band p in
  (match Intervals.intervals solved with
  | [ { lo; hi } ] ->
    Alcotest.(check (float 1e-6)) "band low" 0.003597 lo;
    Alcotest.(check (float 1e-6)) "band high" 0.003657 hi;
    Alcotest.(check (float 1e-3)) "SR inside" 0.9227
      (Success.analytic p ~p_star:(sqrt (lo *. hi)))
  | _ -> Alcotest.failf "expected one band, got %s" (Intervals.to_string solved));
  Alcotest.(check bool) "160-cell scan misses it" true
    (Intervals.is_empty (Oracle.Dense.region_log ~n:160 net ~a ~b));
  Alcotest.(check bool) "1280-cell scan agrees" true
    (region_equal solved (Oracle.Dense.region_log ~n:1280 net ~a ~b))

let () =
  Alcotest.run "regions"
    [
      ( "solver vs dense scan",
        [
          Alcotest.test_case "Fig. 6 panels" `Quick (reported test_fig6_panels);
          Alcotest.test_case "Fig. 7 grid" `Quick (reported test_fig7_grid);
          Alcotest.test_case "seeded vectors" `Quick
            (reported test_seeded_vectors);
        ] );
      ( "properties",
        [
          Alcotest.test_case "price-scale homogeneity" `Quick
            test_price_scale_homogeneity;
          Alcotest.test_case "narrow transition law" `Quick test_narrow_law;
          Alcotest.test_case "narrow feasible band" `Quick
            test_narrow_feasible_band;
        ] );
    ]
