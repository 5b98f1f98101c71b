open Stochastic

type t = { params : Params.t; delay_t2 : float; delay_t3 : float }

let create params ~delay_t2 ~delay_t3 =
  if delay_t2 < 0. || delay_t3 < 0. then
    invalid_arg "Margins.create: negative delay";
  { params; delay_t2; delay_t3 }

let leg_a t = t.params.Params.tau_a +. t.delay_t2
let leg_b t = t.params.Params.tau_b +. t.delay_t3

(* The reveal decision is local: the same Eq. 18 cutoff. *)
let p_t3_low t ~p_star = Cutoff.p_t3_low t.params ~p_star

(* Eqs. 21 and 20 over the stretched t2 -> t3 leg, staged as
   Utility.b_t2_cont. *)
let b_t2_cont t ~p_star =
  let p = t.params in
  let k3 = p_t3_low t ~p_star in
  let span = leg_b t in
  let leg = Gbm.leg (Params.gbm p) ~tau:span in
  let cont = Utility.b_t3_cont p ~p_star in
  let stop = exp (2. *. (p.Params.mu -. p.Params.bob.r) *. p.Params.tau_b) in
  let disc = Utility.discount ~r:p.Params.bob.r ~horizon:span in
  fun ~p_t2 ->
    ((Gbm.leg_sf leg ~k:k3 ~p0:p_t2 *. cont)
    +. (stop *. Gbm.leg_pe_below leg ~k:k3 ~p0:p_t2))
    *. disc

let a_t2_cont t ~p_star =
  let p = t.params in
  let k3 = p_t3_low t ~p_star in
  let span = leg_b t in
  let leg = Gbm.leg (Params.gbm p) ~tau:span in
  let cont =
    (1. +. p.Params.alice.alpha)
    *. exp ((p.Params.mu -. p.Params.alice.r) *. p.Params.tau_b)
  in
  let stop = Utility.a_t3_stop p ~p_star in
  let disc = Utility.discount ~r:p.Params.alice.r ~horizon:span in
  fun ~p_t2 ->
    ((cont *. Gbm.leg_pe_above leg ~k:k3 ~p0:p_t2)
    +. (Gbm.leg_cdf leg ~k:k3 ~p0:p_t2 *. stop))
    *. disc

let a_t2_stop t ~p_star =
  let p = t.params in
  p_star
  *. Utility.discount ~r:p.Params.alice.r
       ~horizon:(leg_b t +. p.Params.eps_b +. (2. *. p.Params.tau_a))

let p_t2_band t ~p_star = Cutoff.t2_region t.params ~p_star (b_t2_cont t ~p_star)

let law_t2 t =
  Gbm.transition (Params.gbm t.params) ~p0:t.params.Params.p0 ~tau:(leg_a t)

let a_t1_cont ?quad_nodes t ~p_star =
  let p = t.params in
  let span = leg_a t in
  let band = p_t2_band t ~p_star in
  let value = a_t2_cont t ~p_star in
  let cont_part =
    Utility.integrate_law ?quad_nodes (law_t2 t) band ~f:(fun x ->
        value ~p_t2:x)
  in
  let stop_part =
    (1. -. Utility.transition_mass p ~tau:span ~p0:p.Params.p0 band)
    *. a_t2_stop t ~p_star
  in
  (cont_part +. stop_part)
  *. Utility.discount ~r:p.Params.alice.r ~horizon:span

let b_t1_cont ?quad_nodes t ~p_star =
  let p = t.params in
  let gbm = Params.gbm p in
  let span = leg_a t in
  let band = p_t2_band t ~p_star in
  let value = b_t2_cont t ~p_star in
  let cont_part =
    Utility.integrate_law ?quad_nodes (law_t2 t) band ~f:(fun x ->
        value ~p_t2:x)
  in
  let outside =
    Gbm.expectation gbm ~p0:p.Params.p0 ~tau:span
    -. Utility.price_mass_inside p ~tau:span ~p0:p.Params.p0 band
  in
  (cont_part +. outside) *. Utility.discount ~r:p.Params.bob.r ~horizon:span

let success_rate ?quad_nodes t ~p_star =
  let k3 = p_t3_low t ~p_star in
  let band = p_t2_band t ~p_star in
  if Intervals.is_empty band then 0.
  else
    let leg = Gbm.leg (Params.gbm t.params) ~tau:(leg_b t) in
    Utility.integrate_law ?quad_nodes (law_t2 t) band ~f:(fun x ->
        Gbm.leg_sf leg ~k:k3 ~p0:x)

let schedule_cost ?quad_nodes (p : Params.t) ~p_star ~delay_t2 ~delay_t3 =
  let zero = create p ~delay_t2:0. ~delay_t3:0. in
  let slack = create p ~delay_t2 ~delay_t3 in
  ( a_t1_cont ?quad_nodes zero ~p_star -. a_t1_cont ?quad_nodes slack ~p_star,
    b_t1_cont ?quad_nodes zero ~p_star -. b_t1_cont ?quad_nodes slack ~p_star )
