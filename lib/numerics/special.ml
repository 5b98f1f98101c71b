let pi = 4. *. atan 1.
let sqrt2 = sqrt 2.
let sqrt_2pi = sqrt (2. *. pi)

(* Lanczos approximation, g = 7, n = 9 (Boost / Numerical Recipes
   coefficient set).  Relative error < 1e-13 for x > 0. *)
let lanczos_g = 7.

let lanczos_coef =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let log_gamma x =
  if x <= 0. then invalid_arg "Special.log_gamma: requires x > 0";
  (* Reflection is unnecessary since we restrict to x > 0; use the shifted
     series directly.  For x < 0.5 apply the reflection formula to keep the
     series argument away from zero. *)
  if x < 0.5 then
    (* Gamma(x) Gamma(1-x) = pi / sin(pi x) *)
    let rec lg x =
      if x < 0.5 then log (pi /. sin (pi *. x)) -. lg (1. -. x)
      else
        let x = x -. 1. in
        let a = ref lanczos_coef.(0) in
        for i = 1 to 8 do
          a := !a +. (lanczos_coef.(i) /. (x +. float_of_int i))
        done;
        let t = x +. lanczos_g +. 0.5 in
        (0.5 *. log (2. *. pi))
        +. (((x +. 0.5) *. log t) -. t)
        +. log !a
    in
    lg x
  else
    let x = x -. 1. in
    let a = ref lanczos_coef.(0) in
    for i = 1 to 8 do
      a := !a +. (lanczos_coef.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2. *. pi)) +. (((x +. 0.5) *. log t) -. t) +. log !a

(* erfc z = t exp(-z^2 + h(y)) for z = |x|, with t = 2 / (2 + z) and h
   summed from its Chebyshev series in y = 2t - 1 by Clenshaw's
   recurrence (ty = 2y).  The coefficients (Erfc_table) are fitted in the
   repository from the incomplete-gamma route this module used before,
   which now lives in test/oracle as the accuracy oracle.  Inlined into
   erf and erfc, whose only allocation is then their boxed result. *)
let[@inline] erfc_abs x =
  let c = Erfc_table.coefficients in
  let z = abs_float x in
  let t = 2. /. (2. +. z) in
  let ty = (4. *. t) -. 2. in
  let d = ref 0. and dd = ref 0. in
  for j = Array.length c - 1 downto 1 do
    let tmp = !d in
    d := (ty *. !d) -. !dd +. c.(j);
    dd := tmp
  done;
  t *. exp ((-.z *. z) +. (0.5 *. (c.(0) +. (ty *. !d))) -. !dd)

let erfc x =
  let r = erfc_abs x in
  if x >= 0. then r else 2. -. r

let erf x =
  let r = erfc_abs x in
  if x >= 0. then 1. -. r else r -. 1.

(* Inverse complementary error function: initial guess from the
   normal-quantile rational approximation, refined by Halley iterations on
   f(x) = erfc x - y, f'(x) = -2/sqrt(pi) exp(-x^2). *)
let erfc_inv y =
  if y <= 0. || y >= 2. then
    invalid_arg "Special.erfc_inv: requires 0 < y < 2";
  if y = 1. then 0.
  else
    let sign, y = if y > 1. then (-1., 2. -. y) else (1., y) in
    (* Initial guess via Giles (2010): x0 ~ erfinv z with z = 1 - y and
       w = -ln(1 - z^2) = -ln(y (2 - y)). *)
    let z = 1. -. y in
    let w = -.log (y *. (2. -. y)) in
    let x0 =
      if w < 6.25 then
        let w = w -. 3.125 in
        let p = -3.6444120640178196996e-21 in
        let p = (p *. w) -. 1.685059138182016589e-19 in
        let p = (p *. w) +. 1.2858480715256400167e-18 in
        let p = (p *. w) +. 1.115787767802518096e-17 in
        let p = (p *. w) -. 1.333171662854620906e-16 in
        let p = (p *. w) +. 2.0972767875968561637e-17 in
        let p = (p *. w) +. 6.6376381343583238325e-15 in
        let p = (p *. w) -. 4.0545662729752068639e-14 in
        let p = (p *. w) -. 8.1519341976054721522e-14 in
        let p = (p *. w) +. 2.6335093153082322977e-12 in
        let p = (p *. w) -. 1.2975133253453532498e-11 in
        let p = (p *. w) -. 5.4154120542946279317e-11 in
        let p = (p *. w) +. 1.051212273321532285e-09 in
        let p = (p *. w) -. 4.1126339803469836976e-09 in
        let p = (p *. w) -. 2.9070369957882005086e-08 in
        let p = (p *. w) +. 4.2347877827932403518e-07 in
        let p = (p *. w) -. 1.3654692000834678645e-06 in
        let p = (p *. w) -. 1.3882523362786468719e-05 in
        let p = (p *. w) +. 0.0001867342080340571352 in
        let p = (p *. w) -. 0.00074070253416626697512 in
        let p = (p *. w) -. 0.0060336708714301490533 in
        let p = (p *. w) +. 0.24015818242558961693 in
        let p = (p *. w) +. 1.6536545626831027356 in
        p
      else
        let w = sqrt w -. 3. in
        let p = -0.000200214257592989898 in
        let p = (p *. w) +. 0.000100950558625358 in
        let p = (p *. w) +. 0.00134934322215091 in
        let p = (p *. w) -. 0.00367342844029044 in
        let p = (p *. w) +. 0.00573950773853142 in
        let p = (p *. w) -. 0.0076224613258459 in
        let p = (p *. w) +. 0.00943887047941251 in
        let p = (p *. w) +. 1.00167406037383 in
        let p = (p *. w) +. 2.83297682961391 in
        p
    in
    let x0 = x0 *. z in
    let f x = erfc x -. y in
    let two_over_sqrt_pi = 2. /. sqrt pi in
    let refine x =
      let fx = f x in
      let d1 = -.two_over_sqrt_pi *. exp (-.(x *. x)) in
      let d2 = -2. *. x *. d1 in
      let denom = d1 -. (fx *. d2 /. (2. *. d1)) in
      if denom = 0. then x else x -. (fx /. denom)
    in
    let x = refine (refine (refine x0)) in
    sign *. x

let erf_inv y =
  if y <= -1. || y >= 1. then
    invalid_arg "Special.erf_inv: requires -1 < y < 1";
  erfc_inv (1. -. y)
