open Numerics

type t = {
  gbm : Gbm.t;
  lambda : float;
  jump_mean : float;
  jump_stddev : float;
}

let create ~mu ~sigma ~lambda ~jump_mean ~jump_stddev =
  if lambda < 0. then invalid_arg "Jump_diffusion.create: requires lambda >= 0";
  if jump_stddev < 0. then
    invalid_arg "Jump_diffusion.create: requires jump_stddev >= 0";
  { gbm = Gbm.create ~mu ~sigma; lambda; jump_mean; jump_stddev }

(* Poisson sampling by inversion (Knuth); fine for lambda * tau in the
   single digits which is the regime of the hour-scale swap. *)
let poisson rng ~mean =
  if mean <= 0. then 0
  else
    let l = exp (-.mean) in
    let rec go k p =
      let p = p *. Rng.uniform rng in
      if p <= l then k else go (k + 1) p
    in
    go 0 1.

let sample rng t ~p0 ~tau =
  let diffusion_part = Gbm.sample rng t.gbm ~p0 ~tau in
  let n_jumps = poisson rng ~mean:(t.lambda *. tau) in
  let jump_log = ref 0. in
  for _ = 1 to n_jumps do
    jump_log :=
      !jump_log +. Rng.gaussian rng ~mean:t.jump_mean ~stddev:t.jump_stddev
  done;
  diffusion_part *. exp !jump_log

let expectation t ~p0 ~tau =
  let jump_drift =
    t.lambda
    *. (exp (t.jump_mean +. (0.5 *. t.jump_stddev *. t.jump_stddev)) -. 1.)
  in
  p0 *. exp ((t.gbm.Gbm.mu +. jump_drift) *. tau)
