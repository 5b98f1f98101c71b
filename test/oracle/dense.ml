(* The fixed-density scan that every continuation region was computed
   with before Numerics.Root.roots_log: evaluate the function on a dense
   log grid, refine each sign change with Brent, rebuild the positive
   set.  It is the oracle the certified solver is checked against. *)

open Numerics

(* Brent runs to a tolerance relative to the bracket, as in the solver,
   so that the two differ only in how they find brackets. *)
let find_all_roots_log ~n f ~a ~b =
  if a <= 0. || b <= a then
    invalid_arg "Dense.find_all_roots_log: requires 0 < a < b";
  let la = log a and lb = log b in
  let xs =
    Array.init (n + 1) (fun i ->
        exp (la +. ((lb -. la) *. float_of_int i /. float_of_int n)))
  in
  let fs = Array.map f xs in
  let roots = ref [] in
  for i = 1 to n do
    let x0 = xs.(i - 1) and x1 = xs.(i) in
    if fs.(i - 1) = 0. then roots := x0 :: !roots
    else if fs.(i - 1) *. fs.(i) < 0. then
      roots := Root.brent ~tol:(1e-13 *. x1) f ~a:x0 ~b:x1 :: !roots
  done;
  if fs.(n) = 0. then roots := xs.(n) :: !roots;
  List.rev !roots

(* [{ x > 0 : f x > 0 }] from an [n]-cell log scan of [a, b]. *)
let region_log ~n f ~a ~b =
  Swap.Intervals.of_sign_changes ~f
    ~roots:(find_all_roots_log ~n f ~a ~b)
    ~domain_lo:0. ~domain_hi:infinity
