open Stochastic

type t = { params : Params.t; q_alice : float; q_bob : float }

let create params ~q_alice ~q_bob =
  if q_alice < 0. || q_bob < 0. then
    invalid_arg "Collateral.create: negative deposit";
  { params; q_alice; q_bob }

let symmetric params ~q = create params ~q_alice:q ~q_bob:q

(* Eq. 34 with eps_b for the paper's tau_e typo; q_alice = 0 recovers
   Eq. 18 exactly. *)
let p_t3_low { params = p; q_alice; _ } ~p_star =
  let net =
    (p_star *. exp (-.p.alice.r *. (p.eps_b +. (2. *. p.tau_a))))
    -. (q_alice *. exp (-.p.alice.r *. (p.eps_b +. p.tau_a)))
  in
  exp ((p.alice.r -. p.mu) *. p.tau_b) /. (1. +. p.alice.alpha) *. max net 0.

(* Eq. 35, Alice's line: on continuation she receives Token_b plus her
   deposit back (at t4 + tau_a); if she aborts at t3 she forfeits the
   deposit and only gets her refunded Token_a.  Staged as
   Utility.a_t2_cont. *)
let a_t2_cont ({ params = p; q_alice; _ } as t) ~p_star =
  let leg = Gbm.leg (Params.gbm p) ~tau:p.tau_b in
  let kc = p_t3_low t ~p_star in
  let cont = (1. +. p.alice.alpha) *. exp ((p.mu -. p.alice.r) *. p.tau_b) in
  let deposit_back =
    q_alice *. Utility.discount ~r:p.alice.r ~horizon:(p.eps_b +. p.tau_a)
  in
  let stop = Utility.a_t3_stop p ~p_star in
  let disc = Utility.discount ~r:p.alice.r ~horizon:p.tau_b in
  fun ~p_t2 ->
    ((cont *. Gbm.leg_pe_above leg ~k:kc ~p0:p_t2)
    +. (Gbm.leg_sf leg ~k:kc ~p0:p_t2 *. deposit_back)
    +. (Gbm.leg_cdf leg ~k:kc ~p0:p_t2 *. stop))
    *. disc

(* Eq. 35, Bob's line: his own deposit comes back at t3 + tau_a
   unconditionally once he has deployed; if Alice then aborts he also
   collects her deposit.  Staged as Utility.b_t2_cont. *)
let b_t2_cont ({ params = p; q_alice; q_bob; _ } as t) ~p_star =
  let leg = Gbm.leg (Params.gbm p) ~tau:p.tau_b in
  let kc = p_t3_low t ~p_star in
  let own_deposit_back =
    q_bob *. Utility.discount ~r:p.bob.r ~horizon:p.tau_a
  in
  let cont = Utility.b_t3_cont p ~p_star in
  let stop = exp (2. *. (p.mu -. p.bob.r) *. p.tau_b) in
  let alice_forfeits =
    q_alice *. Utility.discount ~r:p.bob.r ~horizon:(p.eps_b +. p.tau_a)
  in
  let disc = Utility.discount ~r:p.bob.r ~horizon:p.tau_b in
  fun ~p_t2 ->
    (own_deposit_back
    +. (Gbm.leg_sf leg ~k:kc ~p0:p_t2 *. cont)
    +. (stop *. Gbm.leg_pe_below leg ~k:kc ~p0:p_t2)
    +. (Gbm.leg_cdf leg ~k:kc ~p0:p_t2 *. alice_forfeits))
    *. disc

(* Alice's t2 value when Bob withdraws: her Token_a refund (Eq. 22)
   plus both deposits, released to her at t3 and credited at t3 + tau_a
   -- horizon tau_b + tau_a from t2 (the 2Q term of Eq. 36). *)
let a_t2_on_bob_stop { params = p; q_alice; q_bob; _ } ~p_star =
  Utility.a_t2_stop p ~p_star
  +. ((q_alice +. q_bob)
     *. Utility.discount ~r:p.alice.r ~horizon:(p.tau_b +. p.tau_a))

let cont_set_t2 t ~p_star = Cutoff.t2_region t.params ~p_star (b_t2_cont t ~p_star)

let law_t2 { params = p; _ } =
  Gbm.transition (Params.gbm p) ~p0:p.p0 ~tau:p.tau_a

let a_t1_cont ?quad_nodes t ~p_star =
  let p = t.params in
  let set = cont_set_t2 t ~p_star in
  let value = a_t2_cont t ~p_star in
  let cont_part =
    Utility.integrate_law ?quad_nodes (law_t2 t) set ~f:(fun x ->
        value ~p_t2:x)
  in
  let stop_part =
    (1. -. Utility.transition_mass p ~tau:p.tau_a ~p0:p.p0 set)
    *. a_t2_on_bob_stop t ~p_star
  in
  (cont_part +. stop_part) *. Utility.discount ~r:p.alice.r ~horizon:p.tau_a

let b_t1_cont ?quad_nodes t ~p_star =
  let p = t.params in
  let set = cont_set_t2 t ~p_star in
  let value = b_t2_cont t ~p_star in
  let cont_part =
    Utility.integrate_law ?quad_nodes (law_t2 t) set ~f:(fun x ->
        value ~p_t2:x)
  in
  let outside_price_mass =
    Gbm.expectation (Params.gbm p) ~p0:p.p0 ~tau:p.tau_a
    -. Utility.price_mass_inside p ~tau:p.tau_a ~p0:p.p0 set
  in
  (cont_part +. outside_price_mass)
  *. Utility.discount ~r:p.bob.r ~horizon:p.tau_a

let a_t1_stop t ~p_star = p_star +. t.q_alice
let b_t1_stop t = t.params.Params.p0 +. t.q_bob

type rule = Intersection | Union | Alice_only | Bob_only

let initiation_set ?(rule = Intersection) ?quad_nodes t =
  let alice () =
    Cutoff.p_star_region t.params (fun p_star ->
        a_t1_cont ?quad_nodes t ~p_star -. a_t1_stop t ~p_star)
  and bob () =
    Cutoff.p_star_region t.params (fun p_star ->
        b_t1_cont ?quad_nodes t ~p_star -. b_t1_stop t)
  in
  match rule with
  | Alice_only -> alice ()
  | Bob_only -> bob ()
  | Intersection -> Intervals.intersect (alice ()) (bob ())
  | Union -> Intervals.union (alice ()) (bob ())

let success_rate ?quad_nodes t ~p_star =
  let kc = p_t3_low t ~p_star in
  let set = cont_set_t2 t ~p_star in
  if Intervals.is_empty set then 0.
  else
    let leg = Gbm.leg (Params.gbm t.params) ~tau:t.params.tau_b in
    Utility.integrate_law ?quad_nodes (law_t2 t) set ~f:(fun x ->
        Gbm.leg_sf leg ~k:kc ~p0:x)
