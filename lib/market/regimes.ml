open Numerics
open Stochastic

type spec = {
  mu : float;
  sigma_calm : float;
  sigma_turbulent : float;
  to_turbulent : float;
  to_calm : float;
}

let default_spec =
  {
    mu = 0.0;
    sigma_calm = 0.06;
    sigma_turbulent = 0.25;
    to_turbulent = 1. /. 200.;
    to_calm = 1. /. 50.;
  }

let validate spec =
  if spec.sigma_calm <= 0. || spec.sigma_turbulent <= 0. then
    Error "sigmas must be positive"
  else if spec.sigma_turbulent < spec.sigma_calm then
    Error "turbulent sigma should not be below calm sigma"
  else if spec.to_turbulent < 0. || spec.to_calm <= 0. then
    Error "hazards must be positive"
  else Ok ()

type state = Calm | Turbulent

let state_to_string = function Calm -> "calm" | Turbulent -> "turbulent"

let stationary_turbulent_share spec =
  spec.to_turbulent /. (spec.to_turbulent +. spec.to_calm)

let sample_states rng spec ~dt ~steps =
  (match validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Regimes.sample_states: " ^ e));
  if dt <= 0. || steps <= 0 then
    invalid_arg "Regimes.sample_states: requires dt > 0 and steps > 0";
  let states = Array.make steps Calm in
  let state = ref Calm in
  for i = 0 to steps - 1 do
    (* Switch with the per-step probability 1 - exp(-hazard dt). *)
    let hazard =
      match !state with Calm -> spec.to_turbulent | Turbulent -> spec.to_calm
    in
    if Rng.uniform rng < 1. -. exp (-.hazard *. dt) then
      state := (match !state with Calm -> Turbulent | Turbulent -> Calm);
    states.(i) <- !state
  done;
  states

let sample rng spec ~p0 ~dt ~steps =
  if p0 <= 0. then invalid_arg "Regimes.sample: requires p0 > 0";
  let states = sample_states rng spec ~dt ~steps in
  let times = Array.init steps (fun i -> dt *. float_of_int (i + 1)) in
  let values = Array.make steps p0 in
  let price = ref p0 in
  for i = 0 to steps - 1 do
    let sigma =
      match states.(i) with
      | Calm -> spec.sigma_calm
      | Turbulent -> spec.sigma_turbulent
    in
    let gbm = Gbm.create ~mu:spec.mu ~sigma in
    price := Gbm.sample rng gbm ~p0:!price ~tau:dt;
    values.(i) <- !price;
  done;
  (Path.create ~times ~values, states)

let state_at states ~dt ~t =
  let i = int_of_float (ceil (t /. dt)) - 1 in
  let i = max 0 (min (Array.length states - 1) i) in
  states.(i)
