(* Tests for the market-data substrate: CSV, GBM calibration,
   regime-switching generation, and the walk-forward backtest. *)

open Stochastic

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

(* --- CSV -------------------------------------------------------------- *)

let test_csv_tolerates_noise () =
  let contents = "time,price\n# comment\n\n1.0, 2.0\n2.0,2.1\n" in
  match Market.Csv.parse contents with
  | Ok p -> Alcotest.(check int) "rows" 2 (Array.length p.Path.times)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_csv_rejects_garbage () =
  (match Market.Csv.parse "1.0,2.0\nnot,a,row\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected field-count error");
  (match Market.Csv.parse "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected empty error");
  match Market.Csv.parse "2.0,1.0\n1.0,2.0\n" with
  | Error _ -> () (* times must increase *)
  | Ok _ -> Alcotest.fail "expected ordering error"

let test_csv_file_io () =
  let file = Filename.temp_file "swap_test" ".csv" in
  Out_channel.with_open_text file (fun oc ->
      output_string oc "time,price\n1,3\n2,4\n");
  (match Market.Csv.load file with
  | Ok p -> check_float "loaded" 4. p.Path.values.(1)
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove file

(* --- Calibration ------------------------------------------------------------ *)

let test_calibrate_recovers_parameters () =
  let rng = Numerics.Rng.create ~seed:404 () in
  let gbm = Gbm.create ~mu:0.004 ~sigma:0.12 in
  let times = Array.init 5000 (fun i -> 0.5 *. float_of_int (i + 1)) in
  let values = Gbm.sample_path rng gbm ~p0:2. ~times in
  let path = Path.create ~times ~values in
  match Market.Calibrate.fit path with
  | Error e -> Alcotest.failf "fit failed: %s" e
  | Ok fit ->
    check_float ~tol:0.005 "sigma recovered" 0.12 fit.Market.Calibrate.sigma;
    (* Drift is famously noisy; only require the right ballpark
       relative to its own standard error. *)
    if abs_float (fit.Market.Calibrate.mu -. 0.004)
       > 3. *. fit.Market.Calibrate.mu_stderr
    then
      Alcotest.failf "mu %g too far from 0.004 (se %g)" fit.Market.Calibrate.mu
        fit.Market.Calibrate.mu_stderr

let test_calibrate_irregular_sampling () =
  let rng = Numerics.Rng.create ~seed:405 () in
  let gbm = Gbm.create ~mu:0. ~sigma:0.1 in
  (* Alternating 0.5 h and 2 h gaps. *)
  let times = Array.make 3000 0. in
  let t = ref 0. in
  for i = 0 to 2999 do
    t := !t +. (if i mod 2 = 0 then 0.5 else 2.);
    times.(i) <- !t
  done;
  let values = Gbm.sample_path rng gbm ~p0:2. ~times in
  match Market.Calibrate.fit (Path.create ~times ~values) with
  | Error e -> Alcotest.failf "fit failed: %s" e
  | Ok fit ->
    check_float ~tol:0.01 "sigma under irregular sampling" 0.1
      fit.Market.Calibrate.sigma

let test_calibrate_window () =
  let rng = Numerics.Rng.create ~seed:406 () in
  let gbm = Gbm.create ~mu:0. ~sigma:0.1 in
  let times = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  let values = Gbm.sample_path rng gbm ~p0:2. ~times in
  let path = Path.create ~times ~values in
  match Market.Calibrate.fit_window path ~until:500. ~window:100. with
  | Error e -> Alcotest.failf "window fit failed: %s" e
  | Ok fit ->
    Alcotest.(check bool) "about 100 observations" true
      (abs (fit.Market.Calibrate.n - 100) <= 2)

let test_calibrate_rejects_bad_input () =
  (match
     Market.Calibrate.fit
       (Path.create ~times:[| 1.; 2. |] ~values:[| 1.; 2. |])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "two samples must be rejected");
  match
    Market.Calibrate.fit
      (Path.create ~times:[| 1.; 2.; 3.; 4. |] ~values:[| 1.; 1.; 1.; 1. |])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "constant path must be rejected"

let test_calibrate_to_params () =
  let fit =
    match
      Market.Calibrate.fit
        (Path.create
           ~times:[| 1.; 2.; 3.; 4.; 5. |]
           ~values:[| 2.; 2.1; 2.05; 2.2; 2.1 |])
    with
    | Ok f -> f
    | Error e -> Alcotest.failf "fit failed: %s" e
  in
  let params = Market.Calibrate.to_params fit ~spot:3.3 in
  check_float "spot becomes p0" 3.3 params.Swap.Params.p0;
  check_float "sigma transplanted" fit.Market.Calibrate.sigma
    params.Swap.Params.sigma

(* --- Regimes -------------------------------------------------------------------- *)

let test_regime_sample_shapes () =
  let rng = Numerics.Rng.create ~seed:11 () in
  let path, states =
    Market.Regimes.sample rng Market.Regimes.default_spec ~p0:2. ~dt:1.
      ~steps:500
  in
  Alcotest.(check int) "path length" 500 (Array.length path.Path.times);
  Alcotest.(check int) "state per sample" 500 (Array.length states);
  Array.iter (fun v -> if v <= 0. then Alcotest.fail "nonpositive price")
    path.Path.values

let test_regime_stationary_share () =
  let share =
    Market.Regimes.stationary_turbulent_share Market.Regimes.default_spec
  in
  check_float ~tol:1e-12 "20% turbulent" 0.2 share;
  (* Long-run empirical share approaches it. *)
  let rng = Numerics.Rng.create ~seed:12 () in
  let states =
    Market.Regimes.sample_states rng Market.Regimes.default_spec ~dt:1.
      ~steps:200_000
  in
  let turbulent =
    Array.fold_left
      (fun acc s -> if s = Market.Regimes.Turbulent then acc + 1 else acc)
      0 states
  in
  check_float ~tol:0.03 "empirical share" share
    (float_of_int turbulent /. 200_000.)

let test_regime_vols_differ () =
  let rng = Numerics.Rng.create ~seed:13 () in
  let spec = Market.Regimes.default_spec in
  let path, states = Market.Regimes.sample rng spec ~p0:2. ~dt:1. ~steps:50_000 in
  let rets = Path.log_returns path in
  let calm = ref [] and turb = ref [] in
  Array.iteri
    (fun i r ->
      match states.(i + 1) with
      | Market.Regimes.Calm -> calm := r :: !calm
      | Market.Regimes.Turbulent -> turb := r :: !turb)
    rets;
  let sd xs = Numerics.Stats.stddev (Array.of_list xs) in
  check_float ~tol:0.01 "calm vol" spec.Market.Regimes.sigma_calm (sd !calm);
  check_float ~tol:0.03 "turbulent vol" spec.Market.Regimes.sigma_turbulent
    (sd !turb)

let test_regime_validation () =
  let bad =
    { Market.Regimes.default_spec with Market.Regimes.sigma_calm = 0.5 }
  in
  match Market.Regimes.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "turbulent < calm must be rejected"

(* --- Backtest -------------------------------------------------------------------- *)

(* The backtest is the expensive part; share one run across tests. *)
let backtest_fixture =
  lazy
    (let rng = Numerics.Rng.create ~seed:2023 () in
     let path, states =
       Market.Regimes.sample rng Market.Regimes.default_spec ~p0:2. ~dt:0.5
         ~steps:(30 * 48)
     in
     (path, states, Market.Backtest.run path))

let test_backtest_runs_and_summarises () =
  let _, _, trades = Lazy.force backtest_fixture in
  if List.length trades < 10 then
    Alcotest.failf "too few trades: %d" (List.length trades);
  let s = Market.Backtest.summarize trades in
  Alcotest.(check int) "counts are consistent" s.Market.Backtest.trades
    (s.Market.Backtest.skipped + s.Market.Backtest.initiated);
  if s.Market.Backtest.initiated > 0 then begin
    if s.Market.Backtest.realized_sr < 0. || s.Market.Backtest.realized_sr > 1.
    then Alcotest.fail "realized SR out of range"
  end

let test_backtest_trades_have_quotes () =
  let _, _, trades = Lazy.force backtest_fixture in
  List.iter
    (fun (t : Market.Backtest.trade) ->
      match (t.Market.Backtest.p_star, t.Market.Backtest.predicted_sr) with
      | Some p_star, Some sr ->
        if p_star <= 0. then Alcotest.fail "nonpositive quote";
        if sr < 0. || sr > 1. then Alcotest.fail "prediction out of range";
        if t.Market.Backtest.fitted_sigma <= 0. then
          Alcotest.fail "nonpositive fitted sigma"
      | None, None -> ()
      | _ -> Alcotest.fail "quote and prediction must come together")
    trades

let test_backtest_group_partition () =
  let _, states, trades = Lazy.force backtest_fixture in
  let groups =
    Market.Backtest.summarize_by trades ~classify:(fun t ->
        Market.Regimes.state_at states ~dt:0.5 ~t:t.Market.Backtest.start)
  in
  let total =
    List.fold_left (fun acc (_, s) -> acc + s.Market.Backtest.trades) 0 groups
  in
  Alcotest.(check int) "groups partition the trades" (List.length trades) total

(* --- Quote table ------------------------------------------------------------------ *)

let quote_table = lazy (Market.Quote_table.build Swap.Params.defaults)

let test_quote_table_matches_direct_solve () =
  let table = Lazy.force quote_table in
  List.iter
    (fun (mu, sigma) ->
      let p =
        Swap.Params.with_sigma (Swap.Params.with_mu Swap.Params.defaults mu)
          sigma
      in
      match
        (Market.Quote_table.quote table ~mu ~sigma ~spot:2.,
         Swap.Success.maximize p)
      with
      | Some q, Some direct ->
        check_float ~tol:0.02 "p_star" direct.Swap.Success.p_star
          q.Market.Quote_table.p_star;
        check_float ~tol:0.02 "sr" direct.Swap.Success.sr
          q.Market.Quote_table.sr
      | None, Some _ -> Alcotest.fail "table gap where direct solve works"
      | _, None -> ())
    [ (0.001, 0.07); (0.003, 0.11); (-0.004, 0.05) ]

let test_quote_table_scales_with_spot () =
  let table = Lazy.force quote_table in
  match
    (Market.Quote_table.quote table ~mu:0.002 ~sigma:0.1 ~spot:2.,
     Market.Quote_table.quote table ~mu:0.002 ~sigma:0.1 ~spot:6.)
  with
  | Some a, Some b ->
    check_float ~tol:1e-9 "homogeneous quote"
      (3. *. a.Market.Quote_table.p_star)
      b.Market.Quote_table.p_star;
    check_float ~tol:1e-9 "same SR" a.Market.Quote_table.sr
      b.Market.Quote_table.sr
  | _ -> Alcotest.fail "quotes expected"

let test_quote_table_outside_grid () =
  let table = Lazy.force quote_table in
  Alcotest.(check bool) "off-grid is None" true
    (Market.Quote_table.quote table ~mu:0.002 ~sigma:0.5 ~spot:2. = None)

let test_backtest_with_quote_table_agrees () =
  let _, _, slow_trades = Lazy.force backtest_fixture in
  let path, _, _ = Lazy.force backtest_fixture in
  let table = Lazy.force quote_table in
  let fast_trades = Market.Backtest.run ~quote_table:table path in
  let s = Market.Backtest.summarize slow_trades in
  let f = Market.Backtest.summarize fast_trades in
  Alcotest.(check int) "same trade count" s.Market.Backtest.trades
    f.Market.Backtest.trades;
  if abs_float (s.Market.Backtest.realized_sr -. f.Market.Backtest.realized_sr)
     > 0.1
  then Alcotest.fail "table-driven backtest must roughly agree"

let () =
  Alcotest.run "market"
    [
      ( "csv",
        [
          Alcotest.test_case "headers and comments" `Quick
            test_csv_tolerates_noise;
          Alcotest.test_case "rejects garbage" `Quick test_csv_rejects_garbage;
          Alcotest.test_case "file io" `Quick test_csv_file_io;
        ] );
      ( "calibrate",
        [
          Alcotest.test_case "recovers GBM parameters" `Slow
            test_calibrate_recovers_parameters;
          Alcotest.test_case "irregular sampling" `Slow
            test_calibrate_irregular_sampling;
          Alcotest.test_case "trailing window" `Quick test_calibrate_window;
          Alcotest.test_case "rejects bad input" `Quick
            test_calibrate_rejects_bad_input;
          Alcotest.test_case "to_params" `Quick test_calibrate_to_params;
        ] );
      ( "regimes",
        [
          Alcotest.test_case "sample shapes" `Quick test_regime_sample_shapes;
          Alcotest.test_case "stationary share" `Slow
            test_regime_stationary_share;
          Alcotest.test_case "per-regime volatilities" `Slow
            test_regime_vols_differ;
          Alcotest.test_case "validation" `Quick test_regime_validation;
        ] );
      ( "quote_table",
        [
          Alcotest.test_case "matches direct solve" `Slow
            test_quote_table_matches_direct_solve;
          Alcotest.test_case "homogeneous in the spot" `Slow
            test_quote_table_scales_with_spot;
          Alcotest.test_case "off-grid is None" `Slow
            test_quote_table_outside_grid;
          Alcotest.test_case "backtest agreement" `Slow
            test_backtest_with_quote_table_agrees;
        ] );
      ( "backtest",
        [
          Alcotest.test_case "runs and summarises" `Slow
            test_backtest_runs_and_summarises;
          Alcotest.test_case "quotes are sane" `Slow
            test_backtest_trades_have_quotes;
          Alcotest.test_case "grouping partitions" `Slow
            test_backtest_group_partition;
        ] );
    ]
