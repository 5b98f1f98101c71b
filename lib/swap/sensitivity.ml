type variant = { label : string; params : Params.t }

type sweep_result = {
  variant : variant;
  feasible : (float * float) option;
  curve : Success.point array;
  best : Success.point option;
}

let fig6_panels ?(base = Params.defaults) () =
  let v label params = { label; params } in
  let default = v "default" base in
  [
    ( "alpha_A",
      [
        v "alpha_A=0.05" (Params.with_alpha_alice base 0.05);
        v "alpha_A=0.1" (Params.with_alpha_alice base 0.1);
        default;
        v "alpha_A=0.5" (Params.with_alpha_alice base 0.5);
      ] );
    ( "alpha_B",
      [
        v "alpha_B=0.05" (Params.with_alpha_bob base 0.05);
        v "alpha_B=0.1" (Params.with_alpha_bob base 0.1);
        default;
        v "alpha_B=0.5" (Params.with_alpha_bob base 0.5);
      ] );
    ( "r_A",
      [
        v "r_A=0.005" (Params.with_r_alice base 0.005);
        default;
        v "r_A=0.02" (Params.with_r_alice base 0.02);
        v "r_A=0.05" (Params.with_r_alice base 0.05);
      ] );
    ( "r_B",
      [
        v "r_B=0.005" (Params.with_r_bob base 0.005);
        default;
        v "r_B=0.02" (Params.with_r_bob base 0.02);
        v "r_B=0.05" (Params.with_r_bob base 0.05);
      ] );
    ( "tau_a",
      [
        v "tau_a=1" (Params.with_tau_a base 1.);
        default;
        v "tau_a=6" (Params.with_tau_a base 6.);
        v "tau_a=12" (Params.with_tau_a base 12.);
      ] );
    ( "tau_b",
      [
        v "tau_b=2" (Params.with_tau_b base 2.);
        default;
        v "tau_b=8" (Params.with_tau_b base 8.);
        v "tau_b=16" (Params.with_tau_b base 16.);
      ] );
    ( "mu",
      [
        v "mu=-0.01" (Params.with_mu base (-0.01));
        v "mu=0" (Params.with_mu base 0.);
        default;
        v "mu=0.01" (Params.with_mu base 0.01);
      ] );
    ( "sigma",
      [
        v "sigma=0.05" (Params.with_sigma base 0.05);
        default;
        v "sigma=0.2" (Params.with_sigma base 0.2);
        v "sigma=0.4" (Params.with_sigma base 0.4);
      ] );
  ]

let sweep ?quad_nodes ?(n = 41) variants =
  List.map
    (fun variant ->
      let feasible, curve =
        Success.feasible_and_curve ?quad_nodes ~n variant.params
      in
      let best =
        Array.fold_left
          (fun acc (pt : Success.point) ->
            match acc with
            | Some (b : Success.point) when b.sr >= pt.sr -> acc
            | _ -> Some pt)
          None curve
      in
      { variant; feasible; curve; best })
    variants
