(* Replication scorecard: every quantitative or directional claim the
   paper makes, the value this repository measures for it, and a
   machine-checked verdict.  The test suite asserts that every verdict
   is PASS, so the scorecard doubles as the reproduction's regression
   gate. *)

let name = "scorecard"
let description = "Machine-checked verdicts for every reproduced paper claim"

type expectation =
  | Range of float * float  (** Measured value must land inside. *)
  | Approx of float * float  (** (target, absolute tolerance). *)
  | Holds  (** The measured value is 1. when a direction/shape holds. *)

type claim = {
  id : string;
  statement : string;
  expectation : expectation;
  measure : unit -> float;
}

let bool_measure f () = if f () then 1. else 0.

let claims () =
  let p = Swap.Params.defaults in
  let sr = Swap.Success.analytic p in
  [
    {
      id = "eq18";
      statement = "Alice's t3 cutoff (Eq. 18) at P*=2, Table III defaults";
      expectation =
        Approx (exp (((0.01 -. 0.002) *. 4.) -. (0.01 *. 7.)) *. 2. /. 1.3, 1e-9);
      measure = (fun () -> Swap.Cutoff.p_t3_low p ~p_star:2.);
    };
    {
      id = "eq29-lo";
      statement = "Feasible-rate floor P*_low (paper: 1.5)";
      expectation = Range (1.4, 1.6);
      measure =
        (fun () ->
          match Swap.Cutoff.p_star_band_endpoints p with
          | Some (lo, _) -> lo
          | None -> nan);
    };
    {
      id = "eq29-hi";
      statement = "Feasible-rate ceiling P*_high (paper: 2.5)";
      expectation = Range (2.4, 2.6);
      measure =
        (fun () ->
          match Swap.Cutoff.p_star_band_endpoints p with
          | Some (_, hi) -> hi
          | None -> nan);
    };
    {
      id = "fig6-concave";
      statement = "SR is peaked strictly inside the feasible band (Fig. 6)";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            sr ~p_star:2. > sr ~p_star:1.6 && sr ~p_star:2. > sr ~p_star:2.45);
    };
    {
      id = "fig6-alpha";
      statement = "Higher success premium raises SR (Sec. III-F1)";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            let at a =
              Swap.Success.analytic
                (Swap.Params.with_alpha_alice (Swap.Params.with_alpha_bob p a) a)
                ~p_star:2.
            in
            at 0.45 > at 0.3 && at 0.3 > at 0.15);
    };
    {
      id = "fig6-r";
      statement = "Impatience narrows the feasible band (Sec. III-F2)";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            let width r =
              match
                Swap.Cutoff.p_star_band_endpoints
                  (Swap.Params.with_r_alice (Swap.Params.with_r_bob p r) r)
              with
              | Some (lo, hi) -> hi -. lo
              | None -> 0.
            in
            width 0.02 < width 0.01);
    };
    {
      id = "fig6-tau";
      statement = "Faster chains raise the optimal SR (Sec. III-F3)";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            let best p' =
              match Swap.Success.maximize p' with
              | Some b -> b.Swap.Success.sr
              | None -> 0.
            in
            best (Swap.Params.with_tau_a (Swap.Params.with_tau_b p 2.) 1.)
            > best p);
    };
    {
      id = "fig6-mu";
      statement = "Upward drift raises SR (Sec. III-F4)";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            Swap.Success.analytic (Swap.Params.with_mu p 0.01) ~p_star:2.
            > Swap.Success.analytic (Swap.Params.with_mu p (-0.01)) ~p_star:2.);
    };
    {
      id = "fig6-sigma";
      statement = "Volatility lowers the maximum SR (Sec. III-F4)";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            let best sigma =
              match Swap.Success.maximize (Swap.Params.with_sigma p sigma) with
              | Some b -> b.Swap.Success.sr
              | None -> 0.
            in
            best 0.05 > best 0.1 && best 0.1 > best 0.15);
    };
    {
      id = "fig9";
      statement = "Collateral raises SR monotonically (Fig. 9 / Eq. 40)";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            let at q =
              Swap.Collateral.success_rate (Swap.Collateral.symmetric p ~q)
                ~p_star:2.
            in
            at 0.5 > at 0.25 && at 0.25 > at 0.);
    };
    {
      id = "both-exits";
      statement =
        "Both counterparties walk away with positive probability (Sec. V)";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            let d = Swap.Outcomes.distribution p ~p_star:2. in
            d.Swap.Outcomes.alice_reneges > 0.01
            && d.Swap.Outcomes.bob_balks_high +. d.Swap.Outcomes.bob_balks_low
               > 0.01);
    };
    {
      id = "bisq";
      statement =
        "Collateralised failure rate in the low single digits at moderate \
         volatility (Sec. II-A's 3-5% anecdote)";
      expectation = Range (0.005, 0.08);
      measure =
        (fun () ->
          1.
          -. Swap.Collateral.success_rate
               (Swap.Collateral.symmetric p ~q:0.5)
               ~p_star:2.);
    };
    {
      id = "sr-default";
      statement = "Baseline SR at the defaults and P* = 2 (regression pin)";
      expectation = Approx (0.7143, 0.002);
      measure = (fun () -> sr ~p_star:2.);
    };
    {
      id = "mc-consistency";
      statement = "Monte-Carlo agrees with Eq. 31 (20k paths, +-0.01)";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            let policy = Swap.Agent.rational p ~p_star:2. in
            let mc = Swap.Montecarlo.run ~trials:20_000 p ~p_star:2. ~policy in
            abs_float (mc.Swap.Montecarlo.rate -. sr ~p_star:2.) < 0.01);
    };
    {
      id = "lattice-consistency";
      statement = "Generic SPE solver on a lattice converges to Eq. 31";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            let spec =
              Swap.Lattice_game.make_spec ~steps_a:120 ~steps_b:120 p ~p_star:2.
            in
            abs_float
              ((Swap.Lattice_game.solve spec).Swap.Lattice_game.success_rate
              -. sr ~p_star:2.)
            < 0.03);
    };
    {
      id = "best-response";
      statement =
        "No probed unilateral deviation beats Eq. 18 or the t2 band";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            (Swap.Equilibrium.check_alice_cutoff p ~p_star:2.)
              .Swap.Equilibrium.is_best_response
            && (Swap.Equilibrium.check_bob_band p ~p_star:2.)
                 .Swap.Equilibrium.is_best_response);
    };
    {
      id = "ac3-regime";
      statement =
        "Witness commitment's SR equals the alice-committed regime (Sec. \
         II-C protocols on the same utility model)";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            abs_float
              (Swap.Ac3.success_rate p ~p_star:2.
              -. (Swap.Optionality.value p ~p_star:2.
                    Swap.Optionality.alice_committed)
                   .Swap.Optionality.success_rate)
            < 1e-6);
    };
    {
      id = "table1";
      statement = "Live protocol run moves balances exactly per Table I";
      expectation = Holds;
      measure =
        bool_measure (fun () ->
            let r = Swap.Protocol.run p ~p_star:2. in
            r.Swap.Protocol.outcome = Swap.Protocol.Success
            && r.Swap.Protocol.alice_delta_a = -2.
            && r.Swap.Protocol.alice_delta_b = 1.
            && r.Swap.Protocol.bob_delta_a = 2.
            && r.Swap.Protocol.bob_delta_b = -1.);
    };
  ]

let verdict claim =
  let v = claim.measure () in
  match claim.expectation with
  | Range (lo, hi) -> (v, v >= lo && v <= hi)
  | Approx (target, tol) -> (v, abs_float (v -. target) <= tol)
  | Holds -> (v, v = 1.)

let all_pass () = List.for_all (fun c -> snd (verdict c)) (claims ())

let run () =
  let rows =
    List.map
      (fun c ->
        let v, ok = verdict c in
        let expected =
          match c.expectation with
          | Range (lo, hi) -> Printf.sprintf "in [%g, %g]" lo hi
          | Approx (t, tol) -> Printf.sprintf "%g +- %g" t tol
          | Holds -> "holds"
        in
        [
          c.id;
          c.statement;
          expected;
          (match c.expectation with
          | Holds -> if v = 1. then "yes" else "NO"
          | _ -> Render.fmt v);
          (if ok then "PASS" else "FAIL");
        ])
      (claims ())
  in
  Render.section "Replication scorecard"
  ^ Render.table
      ~header:[ "id"; "claim"; "expected"; "measured"; "verdict" ]
      ~rows
  ^ (if all_pass () then "\nAll claims PASS.\n"
     else "\nSOME CLAIMS FAIL — see above.\n")
