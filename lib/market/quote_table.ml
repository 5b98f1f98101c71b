open Numerics

type t = {
  ratio : Interp.Bilinear.t;  (** Optimal [p_star / p0]. *)
  sr : Interp.Bilinear.t;
  mus : float array;
  sigmas : float array;
}

type quote = { p_star : float; sr : float }
type reason = Outside_grid | Infeasible_neighbor | Non_positive_spot

let reason_to_string = function
  | Outside_grid -> "outside_grid"
  | Infeasible_neighbor -> "infeasible_neighbor"
  | Non_positive_spot -> "non_positive_spot"

(* The GBM game is homogeneous of degree one in the price level: scaling
   the spot and the rate together scales every utility, so decisions and
   SR depend only on the rate-to-spot ratio.  One table serves all
   spots. *)
let build ?mus ?sigmas (base : Swap.Params.t) =
  let mus =
    Option.value ~default:(Grid.linspace ~lo:(-0.01) ~hi:0.01 ~n:9) mus
  in
  let sigmas =
    Option.value ~default:(Grid.linspace ~lo:0.02 ~hi:0.16 ~n:8) sigmas
  in
  let n_mu = Array.length mus and n_sigma = Array.length sigmas in
  let ratio = Array.make_matrix n_mu n_sigma nan in
  let sr = Array.make_matrix n_mu n_sigma nan in
  (* One full solve per node, fanned out over the domain pool (each
     chunk writes only its own matrix cells, so the result is identical
     to the sequential sweep at any jobs count).  This is the serve
     engine's warm build: ~100 ms per node adds up on a dense grid. *)
  Pool.run_chunks ~chunks:(n_mu * n_sigma) (fun node ->
      let i = node / n_sigma and j = node mod n_sigma in
      let p =
        Swap.Params.with_sigma (Swap.Params.with_mu base mus.(i)) sigmas.(j)
      in
      match Swap.Params.validate p with
      | Error _ -> ()
      | Ok () -> (
        match Swap.Success.maximize p with
        | Some best ->
          ratio.(i).(j) <- best.Swap.Success.p_star /. p.Swap.Params.p0;
          sr.(i).(j) <- best.Swap.Success.sr
        | None -> ()));
  {
    ratio = Interp.Bilinear.create ~xs:mus ~ys:sigmas ~values:ratio;
    sr = Interp.Bilinear.create ~xs:mus ~ys:sigmas ~values:sr;
    mus;
    sigmas;
  }

let in_grid t ~mu ~sigma =
  let last a = a.(Array.length a - 1) in
  mu >= t.mus.(0) && mu <= last t.mus
  && sigma >= t.sigmas.(0)
  && sigma <= last t.sigmas

let lookup t ~mu ~sigma ~spot =
  if not (spot > 0.) then Error Non_positive_spot
  else if not (in_grid t ~mu ~sigma) then Error Outside_grid
  else
    match
      ( Interp.Bilinear.eval t.ratio ~x:mu ~y:sigma,
        Interp.Bilinear.eval t.sr ~x:mu ~y:sigma )
    with
    | Some ratio, Some sr -> Ok { p_star = ratio *. spot; sr }
    (* Inside the hull but a surrounding node is nan: the solver found
       no feasible rate at a neighbour, so interpolation is undefined. *)
    | _ -> Error Infeasible_neighbor

let quote t ~mu ~sigma ~spot = Result.to_option (lookup t ~mu ~sigma ~spot)
let nodes t = (Array.length t.mus, Array.length t.sigmas)
