open Stochastic

type belief = { weights : float array; alphas : float array }

let belief pairs =
  if pairs = [] then invalid_arg "Bayesian.belief: empty belief";
  List.iter
    (fun (w, a) ->
      if w <= 0. then invalid_arg "Bayesian.belief: nonpositive weight";
      if a <= -1. then invalid_arg "Bayesian.belief: alpha <= -1")
    pairs;
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. pairs in
  {
    weights = Array.of_list (List.map (fun (w, _) -> w /. total) pairs);
    alphas = Array.of_list (List.map snd pairs);
  }

let mix b f =
  let acc = ref 0. in
  Array.iteri (fun i w -> acc := !acc +. (w *. f b.alphas.(i))) b.weights;
  !acc

(* Alice's Eq. 18 cutoff as a function of her type. *)
let cutoff_of_type (p : Params.t) ~p_star alpha =
  Cutoff.p_t3_low (Params.with_alpha_alice p alpha) ~p_star

(* --- Bob uncertain about Alice ------------------------------------------ *)

(* Eq. 21 with the indicator of Alice's continuation replaced by its
   belief-expectation: each type has its own cutoff, so the survival
   and lower-partial-expectation terms mix. *)
(* Staged: the per-type cutoffs and constants are computed once. *)
let b_t2_cont_mixed (p : Params.t) ~belief_on_alice ~p_star =
  let leg = Gbm.leg (Params.gbm p) ~tau:p.Params.tau_b in
  let cont = Utility.b_t3_cont p ~p_star in
  let stop = exp (2. *. (p.Params.mu -. p.Params.bob.r) *. p.Params.tau_b) in
  let disc = Utility.discount ~r:p.Params.bob.r ~horizon:p.Params.tau_b in
  let k3s = Array.map (cutoff_of_type p ~p_star) belief_on_alice.alphas in
  fun ~p_t2 ->
    let acc = ref 0. in
    Array.iteri
      (fun i w ->
        let k3 = k3s.(i) in
        acc :=
          !acc
          +. w
             *. ((Gbm.leg_sf leg ~k:k3 ~p0:p_t2 *. cont)
                +. (stop *. Gbm.leg_pe_below leg ~k:k3 ~p0:p_t2)))
      belief_on_alice.weights;
    !acc *. disc

let p_t2_band_mixed (p : Params.t) ~belief_on_alice ~p_star =
  Cutoff.t2_region p ~p_star (b_t2_cont_mixed p ~belief_on_alice ~p_star)

let success_rate_given_alice ?quad_nodes (p : Params.t) ~belief_on_alice
    ~true_alpha_alice ~p_star =
  let band = p_t2_band_mixed p ~belief_on_alice ~p_star in
  if Intervals.is_empty band then 0.
  else
    Success.analytic_given ?quad_nodes p
      ~k3:(cutoff_of_type p ~p_star true_alpha_alice)
      ~band

let ex_ante_success_rate ?quad_nodes (p : Params.t) ~belief_on_alice ~p_star =
  mix belief_on_alice (fun alpha ->
      success_rate_given_alice ?quad_nodes p ~belief_on_alice
        ~true_alpha_alice:alpha ~p_star)

(* --- Alice uncertain about Bob ------------------------------------------- *)

let a_t1_cont_mixed ?quad_nodes (p : Params.t) ~belief_on_bob ~p_star =
  let k3 = Cutoff.p_t3_low p ~p_star in
  mix belief_on_bob (fun alpha_b ->
      let p_b = Params.with_alpha_bob p alpha_b in
      let band = Cutoff.p_t2_band p_b ~p_star in
      Utility.a_t1_cont ?quad_nodes p ~p_star ~k3 ~band)

let p_star_band_mixed ?quad_nodes (p : Params.t) ~belief_on_bob =
  let f p_star =
    a_t1_cont_mixed ?quad_nodes p ~belief_on_bob ~p_star
    -. Utility.a_t1_stop ~p_star
  in
  Intervals.hull (Cutoff.p_star_region p f)
