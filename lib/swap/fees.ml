open Stochastic

type t = {
  params : Params.t;
  fee_a : float;
  fee_b : float;
  notional : float;
}

let create ?(notional = 1.) params ~fee_a ~fee_b =
  if fee_a < 0. || fee_b < 0. then invalid_arg "Fees.create: negative fee";
  if notional <= 0. then invalid_arg "Fees.create: nonpositive notional";
  { params; fee_a; fee_b; notional }

(* Alice at t3 trades n units: continuing costs the Chain_b claim fee
   immediately, so the per-unit stop value is effectively raised by
   fee_b / n. *)
let p_t3_low { params = p; fee_b; notional; _ } ~p_star =
  let stop_per_unit =
    (p_star *. exp (-.p.Params.alice.r *. (p.Params.eps_b +. (2. *. p.Params.tau_a))))
    +. (fee_b /. notional)
  in
  stop_per_unit
  *. exp ((p.Params.alice.r -. p.Params.mu) *. p.Params.tau_b)
  /. (1. +. p.Params.alice.alpha)

(* Staged as Utility.b_t2_cont. *)
let b_t2_cont ({ params = p; fee_a; fee_b; notional; _ } as t) ~p_star =
  let k3 = p_t3_low t ~p_star in
  let leg = Gbm.leg (Params.gbm p) ~tau:p.Params.tau_b in
  let base = Utility.b_t2_cont p ~p_star ~k3 in
  let claim_fee =
    fee_a *. exp (-.p.Params.bob.r *. (p.Params.tau_b +. p.Params.eps_b))
  in
  fun ~p_t2 ->
    (notional *. base ~p_t2)
    -. fee_b
    -. (Gbm.leg_sf leg ~k:k3 ~p0:p_t2 *. claim_fee)

let p_t2_band t ~p_star =
  let cont = b_t2_cont t ~p_star in
  let a, b = Cutoff.scan_domain t.params ~p_star in
  Intervals.positive_log
    (fun x -> cont ~p_t2:x -. (t.notional *. Utility.b_t2_stop ~p_t2:x))
    ~a ~b

let success_rate ?quad_nodes t ~p_star =
  let k3 = p_t3_low t ~p_star in
  let band = p_t2_band t ~p_star in
  if Intervals.is_empty band then 0.
  else Success.analytic_given ?quad_nodes t.params ~k3 ~band

let a_t1_net ?quad_nodes ({ params = p; fee_a; fee_b; notional; _ } as t)
    ~p_star =
  let k3 = p_t3_low t ~p_star in
  let band = p_t2_band t ~p_star in
  let gross =
    notional
    *. (Utility.a_t1_cont ?quad_nodes p ~p_star ~k3 ~band
       -. Utility.a_t1_stop ~p_star)
  in
  (* The t3 claim fee is paid exactly when the swap will complete. *)
  let expected_claim_fee =
    Success.analytic_given ?quad_nodes p ~k3 ~band
    *. fee_b
    *. exp (-.p.Params.alice.r *. (p.Params.tau_a +. p.Params.tau_b))
  in
  gross -. fee_a -. expected_claim_fee

let p_star_band ?quad_nodes t =
  Intervals.hull
    (Cutoff.p_star_region t.params (fun p_star -> a_t1_net ?quad_nodes t ~p_star))

let break_even_notional ?quad_nodes ?(hi = 1e4) t ~p_star =
  let net n = a_t1_net ?quad_nodes { t with notional = n } ~p_star in
  if net hi <= 0. then None
  else begin
    let lo = ref 1e-6 and hi = ref hi in
    if net !lo > 0. then Some !lo
    else begin
      while !hi -. !lo > 1e-4 *. !hi do
        let mid = sqrt (!lo *. !hi) in
        if net mid > 0. then hi := mid else lo := mid
      done;
      Some !hi
    end
  end
