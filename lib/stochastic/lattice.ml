type t = {
  p0 : float;
  dt : float;
  steps : int;
  up : float;
  down : float;
  p_up : float;
}

let create (gbm : Gbm.t) ~p0 ~horizon ~steps =
  if p0 <= 0. then invalid_arg "Lattice.create: requires p0 > 0";
  if horizon <= 0. then invalid_arg "Lattice.create: requires horizon > 0";
  if steps <= 0 then invalid_arg "Lattice.create: requires steps > 0";
  let dt = horizon /. float_of_int steps in
  let up = exp (gbm.Gbm.sigma *. sqrt dt) in
  let down = 1. /. up in
  let p_up = (exp (gbm.Gbm.mu *. dt) -. down) /. (up -. down) in
  if p_up <= 0. || p_up >= 1. then
    invalid_arg
      "Lattice.create: up-probability outside (0, 1); use more steps";
  { p0; dt; steps; up; down; p_up }

let check_node t ~level ~index =
  if level < 0 || level > t.steps then invalid_arg "Lattice: level out of range";
  if index < 0 || index > level then invalid_arg "Lattice: index out of range"

let price t ~level ~index =
  check_node t ~level ~index;
  t.p0
  *. (t.up ** float_of_int index)
  *. (t.down ** float_of_int (level - index))

let level_prices t ~level =
  Array.init (level + 1) (fun index -> price t ~level ~index)

let log_choose n k =
  Numerics.Special.log_gamma (float_of_int (n + 1))
  -. Numerics.Special.log_gamma (float_of_int (k + 1))
  -. Numerics.Special.log_gamma (float_of_int (n - k + 1))

let node_probability t ~level ~index =
  check_node t ~level ~index;
  if level = 0 then 1.
  else
    exp
      (log_choose level index
      +. (float_of_int index *. log t.p_up)
      +. (float_of_int (level - index) *. log (1. -. t.p_up)))
