(* Workload [analytic]: a paper sweep.  Set-up computes the Eq. 29
   feasible band for a few seeded markets around Table III; each op
   takes a fresh P* inside one market's band and evaluates Eq. 31 and
   Eq. 40 there (one Fig. 6 point plus one Fig. 9 point).  Fresh points
   miss the cutoff memo, as a real sweep does, so the t2 root scan, the
   GL-96 quadrature and erfc do nearly all the work. *)

open Util

type market = {
  params : Swap.Params.t;
  lo : float;  (** Eq. 29 band *)
  hi : float;
  coll : Swap.Collateral.t;  (** symmetric deposit q, seeded per market *)
}

type state = { markets : market array; ops_rng : Numerics.Rng.t }

let n_markets = 4

(* Table III with alpha, mu, sigma and p0 each moved by a few percent:
   the bands stay near (1.5, 2.5) and the cost of an op stays flat
   across seeds. *)
let gen_market rng =
  let d = Swap.Params.defaults in
  let alpha_a = d.alice.alpha *. uniform rng 0.9 1.1 in
  let alpha_b = d.bob.alpha *. uniform rng 0.9 1.1 in
  let mu = d.mu *. uniform rng 0.75 1.25 in
  let sigma = d.sigma *. uniform rng 0.9 1.1 in
  let p0 = d.p0 *. uniform rng 0.95 1.05 in
  let q = uniform rng 0.1 0.5 in
  let params =
    Swap.Params.create
      ~alice:{ d.alice with Swap.Params.alpha = alpha_a }
      ~bob:{ d.bob with Swap.Params.alpha = alpha_b }
      ~mu ~sigma ~p0 ()
  in
  (params, q)

(* Eq. 31 then Eq. 40 at one point.  Traced, Eq. 31 is evaluated through
   the public calls [Swap.Success.analytic] makes, so the library needs
   no span hooks and the two child rungs show inside their parent.  The
   t2 band comes first: it computes and memoises the t3 cutoff itself,
   so the t3 call after it is a memo hit and the parent's time is
   accounted for by the t2 band and the integral. *)
let eval ?sp m ~p_star =
  let span name f = Spans.opt sp name f in
  let sr31 =
    match sp with
    | None -> Swap.Success.analytic m.params ~p_star
    | Some _ ->
      span "success.sr" (fun () ->
          let band = span "cutoff.t2_band" (fun () -> Swap.Cutoff.p_t2_band m.params ~p_star) in
          let k3 = span "cutoff.t3_low" (fun () -> Swap.Cutoff.p_t3_low m.params ~p_star) in
          if Swap.Intervals.is_empty band then 0.
          else
            span "success.integral" (fun () -> Swap.Success.analytic_given m.params ~k3 ~band))
  in
  let sr40 = span "collateral.sr" (fun () -> Swap.Collateral.success_rate m.coll ~p_star) in
  (sr31, sr40)

(* Both SRs are probabilities, and collateral never lowers the SR
   (Fig. 9).  The slack admits last-bit changes in the special
   functions; no reference file is involved. *)
let check (sr31, sr40) =
  let prob x = Float.is_finite x && x >= 0. && x <= 1. in
  prob sr31 && prob sr40 && sr40 >= sr31 -. 1e-9

(* Clears the cutoff memo first, so a set-up that follows another
   ladder in the same process starts from the same state as a fresh
   one. *)
let setup ?sp ~seed () =
  Swap.Cutoff.clear_caches ();
  let rng = Numerics.Rng.of_stream ~seed ~stream:1 () in
  let rec market () =
    let params, q = gen_market rng in
    match
      Spans.opt sp "cutoff.p_star_band" (fun () -> Swap.Cutoff.p_star_band_endpoints params)
    with
    | Some (lo, hi) -> { params; lo; hi; coll = Swap.Collateral.symmetric params ~q }
    | None -> market ()
  in
  let markets = Array.init n_markets (fun _ -> market ()) in
  (* Warm pass: one op per market at its band's midpoint. *)
  Array.iter (fun m -> ignore (eval m ~p_star:(0.5 *. (m.lo +. m.hi)))) markets;
  { markets; ops_rng = Numerics.Rng.of_stream ~seed ~stream:2 () }

(* Op [i]: market [i mod n_markets], P* uniform over the inner 90% of
   its band.  The market order is fixed, so every seed runs the same
   mix. *)
let next_op st i =
  let m = st.markets.(i mod n_markets) in
  let u = uniform st.ops_rng 0.05 0.95 in
  (m, m.lo +. ((m.hi -. m.lo) *. u))

(* Closed loop for [seconds]; [tamper] lets the gate self-test corrupt
   an op's output before the check. *)
let run_phase ?sp ?(tamper = fun _ r -> r) st ph ~seconds =
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  start_slices ph;
  while now_ns () < deadline do
    let i = ph.ops in
    let m, p_star = next_op st i in
    (match sp with Some s -> Spans.set_op s i | None -> ());
    let t0 = now_ns () in
    let r = try Some (eval ?sp m ~p_star) with _ -> None in
    let t1 = now_ns () in
    (match r with
    | Some r when check (tamper i r) -> ()
    | _ -> ph.failed <- ph.failed + 1);
    completed ph t1 ~lat_us:(float_of_int (t1 - t0) *. 1e-3)
  done;
  ph.wall_s <- ph.wall_s +. elapsed_s t_start

let run ~seed ~seconds =
  let t0 = now_ns () in
  let st = setup ~seed () in
  let setup_s = elapsed_s t0 in
  let ph = new_phase () in
  run_phase st ph ~seconds;
  end_to_end ph ~setup_s

(* --- traced run ---------------------------------------------------------- *)

(* The stated argument sets: erfc over [-4, 6] (both tails), the normal
   CDF with mean 0.7 and stddev 0.3 over z in [-5, 5], and GL-96 over
   the Eq. 31 integrand on market 0's t2 band at its band midpoint. *)
let erfc_args = Numerics.Grid.linspace ~lo:(-4.) ~hi:6. ~n:50
let cdf_args = Numerics.Grid.linspace ~lo:(0.7 -. 1.5) ~hi:(0.7 +. 1.5) ~n:50

let kernel_rungs sp st =
  let sink = ref 0. in
  let erfc_ns =
    Spans.per_call_ns sp "special.erfc[x50]" ~batches:200 ~per_batch:50 (fun () ->
        Array.iter (fun x -> sink := !sink +. Numerics.Special.erfc x) erfc_args)
  in
  let cdf_ns =
    Spans.per_call_ns sp "normal.cdf[x50]" ~batches:200 ~per_batch:50 (fun () ->
        Array.iter (fun x -> sink := !sink +. Numerics.Normal.cdf ~mean:0.7 ~stddev:0.3 x) cdf_args)
  in
  let m = st.markets.(0) in
  let p = m.params in
  let p_star = 0.5 *. (m.lo +. m.hi) in
  let k3 = Swap.Cutoff.p_t3_low p ~p_star in
  let gbm = Swap.Params.gbm p in
  let a, b =
    Option.value (Swap.Cutoff.p_t2_band_endpoints p ~p_star) ~default:(0.5 *. p.p0, 2. *. p.p0)
  in
  let integrand x =
    Stochastic.Gbm.pdf gbm ~x ~p0:p.p0 ~tau:p.tau_a
    *. Stochastic.Gbm.sf gbm ~x:k3 ~p0:x ~tau:p.tau_b
  in
  let gl96_ns =
    Spans.per_call_ns sp "integrate.gl96" ~batches:200 ~per_batch:1 (fun () ->
        sink := !sink +. Numerics.Integrate.gauss_legendre ~n:96 integrand ~a ~b)
  in
  if not (Float.is_finite !sink) then print_endline "analytic: kernel rung checksum not finite";
  [ rung "special.erfc_ns" "ns" erfc_ns; rung "normal.cdf_ns" "ns" cdf_ns;
    rung "integrate.gl96_ns" "ns" gl96_ns ]

let traced ~seed ~seconds =
  let sp = Spans.create () in
  Spans.set_op sp (-1);
  let st = setup ~sp ~seed () in
  let kernels = kernel_rungs sp st in
  let h0, m0 = Swap.Cutoff.cache_stats () in
  let plain, tr, overhead =
    alternate ~seconds ~block:0.5 (fun ~traced ph ~seconds ->
        run_phase ?sp:(if traced then Some sp else None) st ph ~seconds)
  in
  let h1, m1 = Swap.Cutoff.cache_stats () in
  let agg = Spans.aggregate sp in
  let call metric_name span_name unit_ scale =
    rung metric_name unit_
      ~self:(Spans.median_self_ns agg span_name *. scale)
      (Spans.median_ns agg span_name *. scale)
  in
  let rows =
    kernels
    @ [
        call "success.integral_us" "success.integral" "us" 1e-3;
        call "cutoff.t2_band_us" "cutoff.t2_band" "us" 1e-3;
        call "success.sr_us" "success.sr" "us" 1e-3;
        call "collateral.sr_us" "collateral.sr" "us" 1e-3;
        call "cutoff.p_star_band_ms" "cutoff.p_star_band" "ms" 1e-6;
      ]
  in
  print_table "analytic ladder (median per call)" rows;
  (* The two child rungs account for their parent: compared as means,
     the sum is exact up to the parent's own self time. *)
  let mean_self name = Samples.mean (agg name).Spans.self in
  let parent = Samples.mean (agg "success.sr").Spans.total in
  Printf.printf
    "  t2_band + integral self time = %.2f%% of success.sr (parent self %.2f%%); tracing \
     overhead %.2f%% of ops/s\n"
    (100. *. (mean_self "cutoff.t2_band" +. mean_self "success.integral") /. parent)
    (100. *. mean_self "success.sr" /. parent)
    overhead;
  let lookups = h1 - h0 + (m1 - m0) in
  ( sp,
    {
      attempted = plain.ops + tr.ops;
      failed = plain.failed + tr.failed;
      metrics =
        metrics_of_rungs rows
        @ [
            metric "cutoff.memo_hit_ratio" "ratio"
              (float_of_int (h1 - h0) /. float_of_int (max 1 lookups));
            metric "trace.overhead_pct.analytic" "%" overhead;
          ];
    } )
