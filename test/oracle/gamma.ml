(* The incomplete-gamma route to erf/erfc that Numerics.Special used
   before its Chebyshev fit.  It is kept here, outside the library, as
   the oracle that the fit is generated from (erfc_fit.exe) and that
   the accuracy tests compare the library against. *)

let log_gamma = Numerics.Special.log_gamma

(* Lower incomplete gamma by its power series: converges fast for x < a+1. *)
let gamma_p_series a x =
  let gln = log_gamma a in
  let rec go ap sum del =
    let ap = ap +. 1. in
    let del = del *. x /. ap in
    let sum = sum +. del in
    if abs_float del < abs_float sum *. 1e-16 then sum
    else go ap sum del
  in
  if x = 0. then 0.
  else
    let sum = go a (1. /. a) (1. /. a) in
    sum *. exp ((-.x) +. (a *. log x) -. gln)

(* The modified-Lentz continued fraction of the upper incomplete gamma,
   without its prefactor exp(-x) x^a / Gamma(a): converges fast for
   x >= a+1. *)
let gamma_q_fraction a x =
  let tiny = 1e-300 in
  let b = ref (x +. 1. -. a) in
  let c = ref (1. /. tiny) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  (let i = ref 1 in
   let continue = ref true in
   while !continue && !i <= 400 do
     let an = -.float_of_int !i *. (float_of_int !i -. a) in
     b := !b +. 2.;
     d := (an *. !d) +. !b;
     if abs_float !d < tiny then d := tiny;
     c := !b +. (an /. !c);
     if abs_float !c < tiny then c := tiny;
     d := 1. /. !d;
     let del = !d *. !c in
     h := !h *. del;
     if abs_float (del -. 1.) < 1e-16 then continue := false;
     incr i
   done);
  !h

let gamma_q_cf a x =
  exp ((-.x) +. (a *. log x) -. log_gamma a) *. gamma_q_fraction a x

let gamma_p a x =
  if a <= 0. then invalid_arg "Gamma.gamma_p: requires a > 0";
  if x < 0. then invalid_arg "Gamma.gamma_p: requires x >= 0";
  if x = 0. then 0.
  else if x < a +. 1. then gamma_p_series a x
  else 1. -. gamma_q_cf a x

let gamma_q a x =
  if a <= 0. then invalid_arg "Gamma.gamma_q: requires a > 0";
  if x < 0. then invalid_arg "Gamma.gamma_q: requires x >= 0";
  if x = 0. then 1.
  else if x < a +. 1. then 1. -. gamma_p_series a x
  else gamma_q_cf a x

let erf x =
  if x = 0. then 0.
  else if x > 0. then gamma_p 0.5 (x *. x)
  else -.gamma_p 0.5 (x *. x)

let erfc x =
  if x >= 0. then
    if x = 0. then 1. else gamma_q 0.5 (x *. x)
  else 2. -. gamma_q 0.5 (x *. x)

(* ln erfc z + z^2 for z >= 0, by the same two branches as [erfc] but
   without forming exp(-z^2), so it stays finite where erfc underflows:
   in the continued-fraction branch the prefactor's -z^2 cancels
   analytically, leaving ln z - ln Gamma(1/2) + ln(fraction). *)
let log_erfc_scaled z =
  if z < 0. then invalid_arg "Gamma.log_erfc_scaled: requires z >= 0";
  let x = z *. z in
  if x < 1.5 then log (gamma_q 0.5 x) +. x
  else log z -. log_gamma 0.5 +. log (gamma_q_fraction 0.5 x)
