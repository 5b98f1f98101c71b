(* Quadrature oracles: the adaptive Simpson rule and the semi-infinite
   Gauss-Legendre transform.  The library's integrals run on fixed
   Gauss-Legendre rules in the law's own coordinate
   (Swap.Utility.integrate_law), so neither is on a production path;
   the tests integrate densities and the paper's integrands with these
   to check the closed forms the library uses. *)

(* Adaptive Simpson with the classic 1/15 Richardson criterion. *)
let adaptive_simpson ?(tol = 1e-10) ?(max_depth = 50) f ~a ~b =
  let simpson_step a fa b fb fm = (b -. a) /. 6. *. (fa +. (4. *. fm) +. fb) in
  let rec go a fa b fb m fm whole tol depth =
    let lm = 0.5 *. (a +. m) and rm = 0.5 *. (m +. b) in
    let flm = f lm and frm = f rm in
    let left = simpson_step a fa m fm flm in
    let right = simpson_step m fm b fb frm in
    let delta = left +. right -. whole in
    if depth <= 0 || abs_float delta <= 15. *. tol then
      left +. right +. (delta /. 15.)
    else
      go a fa m fm lm flm left (tol /. 2.) (depth - 1)
      +. go m fm b fb rm frm right (tol /. 2.) (depth - 1)
  in
  (* Seed with a few fixed panels so that narrow interior features cannot
     be missed by an accidentally small first-level error estimate. *)
  let panels = 8 in
  let h = (b -. a) /. float_of_int panels in
  let total = ref 0. in
  for i = 0 to panels - 1 do
    let a' = a +. (float_of_int i *. h) in
    let b' = a' +. h in
    let fa' = f a' and fb' = f b' in
    let m = 0.5 *. (a' +. b') in
    let fm = f m in
    total :=
      !total
      +. go a' fa' b' fb' m fm
           (simpson_step a' fa' b' fb' fm)
           (tol /. float_of_int panels)
           max_depth
  done;
  !total

let semi_infinite ?(n = 128) f ~a =
  (* x = a + t/(1-t), dx = dt/(1-t)^2, t in [0,1). *)
  let g t =
    let u = 1. -. t in
    if u <= 0. then 0. else f (a +. (t /. u)) /. (u *. u)
  in
  Numerics.Integrate.gauss_legendre ~n g ~a:0. ~b:1.
