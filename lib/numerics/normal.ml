let check_stddev stddev =
  if stddev <= 0. then invalid_arg "Normal: requires stddev > 0"

let cdf ?(mean = 0.) ?(stddev = 1.) x =
  check_stddev stddev;
  let z = (x -. mean) /. stddev in
  0.5 *. Special.erfc (-.z /. Special.sqrt2)

let sf ?(mean = 0.) ?(stddev = 1.) x =
  check_stddev stddev;
  let z = (x -. mean) /. stddev in
  0.5 *. Special.erfc (z /. Special.sqrt2)
