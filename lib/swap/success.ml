open Numerics
open Stochastic

type point = { p_star : float; sr : float }

let analytic_given ?quad_nodes (p : Params.t) ~k3 ~band =
  let gbm = Params.gbm p in
  let leg = Gbm.leg gbm ~tau:p.tau_b in
  Utility.integrate_law ?quad_nodes
    (Gbm.transition gbm ~p0:p.p0 ~tau:p.tau_a)
    band
    ~f:(fun x -> Gbm.leg_sf leg ~k:k3 ~p0:x)

let analytic ?quad_nodes (p : Params.t) ~p_star =
  let k3 = Cutoff.p_t3_low p ~p_star in
  let band = Cutoff.p_t2_band p ~p_star in
  if Intervals.is_empty band then 0.
  else analytic_given ?quad_nodes p ~k3 ~band

let curve ?quad_nodes p ~p_stars =
  Array.map (fun p_star -> { p_star; sr = analytic ?quad_nodes p ~p_star }) p_stars

let maximize ?quad_nodes ?(grid = 40) (p : Params.t) =
  match Cutoff.p_star_band_endpoints p with
  | None -> None
  | Some (lo, hi) ->
    let f p_star = analytic ?quad_nodes p ~p_star in
    let x, sr = Minimize.grid_then_golden ~grid ~tol:1e-9 f ~a:lo ~b:hi in
    Some { p_star = x; sr }

let feasible_and_curve ?quad_nodes ?(n = 41) (p : Params.t) =
  match Cutoff.p_star_band_endpoints p with
  | None -> (None, [||])
  | Some (lo, hi) ->
    let pad = 1e-6 *. (hi -. lo) in
    let p_stars = Grid.linspace ~lo:(lo +. pad) ~hi:(hi -. pad) ~n in
    (Some (lo, hi), curve ?quad_nodes p ~p_stars)
