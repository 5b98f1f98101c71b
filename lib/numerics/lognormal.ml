type t = { mu : float; sigma : float }

let create ~mu ~sigma =
  if sigma <= 0. then invalid_arg "Lognormal.create: requires sigma > 0";
  { mu; sigma }

let pdf { mu; sigma } x =
  if x <= 0. then 0.
  else
    let z = (log x -. mu) /. sigma in
    exp (-0.5 *. z *. z) /. (x *. sigma *. Special.sqrt_2pi)

let sf { mu; sigma } x =
  if x <= 0. then 1. else Normal.sf ~mean:mu ~stddev:sigma (log x)

let mean { mu; sigma } = exp (mu +. (0.5 *. sigma *. sigma))
