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
