type t = Collateral.t

let create params ~w =
  if w < 0. then invalid_arg "Premium.create: negative premium";
  Collateral.create params ~q_alice:w ~q_bob:0.

let as_collateral t = t
let success_rate ?quad_nodes t ~p_star =
  Collateral.success_rate ?quad_nodes t ~p_star
