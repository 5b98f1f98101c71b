(* The bridge from the paper's 2-party model to lib/swapgraph: builds
   per-leg rational policies, graph-game payoffs and the served token
   universe out of Params/Cutoff/Success, so the graph library itself
   stays parameter-free (it sits below this library).

   Conventions: identical legs with unit notional per arc, Bob-side
   calibration (premium [bob.alpha] per incoming leg, time-value
   [bob.r] per locked hour) — the symmetric-legs reading of an n-party
   cyclic swap. *)

let schedule ?slack (p : Params.t) g =
  Swapgraph.Timelock.assign ?slack g ~tau:p.Params.tau_b ~eps:p.Params.eps_b

(* Every party applies the 2-party rational rule to its own leg with
   the {e baseline} cutoffs — identical bands at every depth, the
   n-party cyclic-swap semantics of the multihop experiment. *)
let uniform_policy (p : Params.t) ~p_star =
  let gbm = Params.gbm p in
  let band = Cutoff.p_t2_band p ~p_star in
  let k3 = Cutoff.p_t3_low p ~p_star in
  {
    Swapgraph.Mc.price_at =
      (fun rng ~t -> Stochastic.Gbm.sample rng gbm ~p0:p.Params.p0 ~tau:t);
    lock_ok = (fun _v ~t:_ ~price -> Intervals.contains band price);
    reveal_ok = (fun ~t:_ ~price -> price > k3);
  }

(* The time from a party's lock until its leg's happy-path claim — the
   window its collateral is exposed to adverse price moves.  In the
   2-party cycle this is exactly [tau_b]; deeper graphs and slack
   stretch it. *)
let wait_hours g (s : Swapgraph.Timelock.schedule) v =
  let leg = List.hd (Swapgraph.Graph.out_arcs g v) in
  s.Swapgraph.Timelock.claim_time.(leg) -. s.Swapgraph.Timelock.lock_time.(leg)

(* Depth-aware variant: each party's cutoffs are recomputed with
   [tau_b] stretched to its own leg's exposure window, so parties far
   from the leader (or under heavy slack) rationally demand a narrower
   band — the structural cost Herlihy's staggering imposes. *)
let depth_aware_policy (p : Params.t) ~p_star g s =
  let gbm = Params.gbm p in
  let stretched v = { p with Params.tau_b = wait_hours g s v } in
  let bands =
    Array.init (Swapgraph.Graph.n g) (fun v ->
        Cutoff.p_t2_band (stretched v) ~p_star)
  in
  let k3 = Cutoff.p_t3_low (stretched (Swapgraph.Graph.leader g)) ~p_star in
  {
    Swapgraph.Mc.price_at =
      (fun rng ~t -> Stochastic.Gbm.sample rng gbm ~p0:p.Params.p0 ~tau:t);
    lock_ok = (fun v ~t:_ ~price -> Intervals.contains bands.(v) price);
    reveal_ok = (fun ~t:_ ~price -> price > k3);
  }

(* Griefing exposure in value terms: time-value rate times the hours
   each party's outgoing collateral can be held hostage. *)
let griefing_value (p : Params.t) g s =
  Array.map
    (fun h -> p.Params.bob.Params.r *. h)
    (Swapgraph.Timelock.exposure_hours g s)

(* Graph-game payoffs: completing earns the premium on every incoming
   leg and pays time-value on every outgoing lock (tight schedule:
   funds stay locked until the claim at expiry either way); an abort
   costs exactly the parties already locked their time-value and
   everyone else nothing. *)
let payoffs (p : Params.t) g s =
  let n = Swapgraph.Graph.n g in
  let alpha = p.Params.bob.Params.alpha in
  let lock_cost = griefing_value p g s in
  let success =
    Array.init n (fun v ->
        (alpha *. float_of_int (List.length (Swapgraph.Graph.in_arcs g v)))
        -. lock_cost.(v))
  in
  let no_reveal = Array.map (fun c -> -.c) lock_cost in
  let order = Swapgraph.Graph.decision_order g in
  let abort_at aborter =
    let payoff = Array.make n 0. in
    (try
       Array.iter
         (fun v ->
           if v = aborter then raise Exit;
           payoff.(v) <- -.lock_cost.(v))
         order
     with Exit -> ());
    payoff
  in
  { Swapgraph.Game.success; no_reveal; abort_at }

(* --- served token universe ----------------------------------------------- *)

(* A small, deterministic cross-chain universe for the [route] serve
   kind: tokens mapped to chain technologies, pairs priced by the
   2-party solver at each pair's SR-optimal rate.  Deliberately not a
   complete graph — XMR only trades against BTC, SOL against the smart
   contract chains — so multi-hop routing has work to do. *)
let default_pairs =
  [
    ("BTC", Presets.btc_like, "ETH", Presets.eth_like);
    ("ETH", Presets.eth_like, "USDC", Presets.eth_like);
    ("ETH", Presets.eth_like, "SOL", Presets.fast_finality);
    ("SOL", Presets.fast_finality, "USDC", Presets.eth_like);
    ("XMR", Presets.paper_default, "BTC", Presets.btc_like);
  ]

let default_universe ?(base = Params.defaults) () =
  let edges =
    List.concat_map
      (fun (tok_a, tech_a, tok_b, tech_b) ->
        let params = Presets.pair ~base ~chain_a:tech_a ~chain_b:tech_b () in
        match Success.maximize params with
        | None -> []
        | Some { Success.p_star; sr } ->
          (* The numeric optimiser can overshoot probability-1 by an
             ulp on near-certain pairs; the router validates sr as a
             probability, so clamp here. *)
          let sr = Float.min 1. (Float.max 0. sr) in
          [
            { Swapgraph.Router.src = tok_a; dst = tok_b; sr; rate = p_star };
            { Swapgraph.Router.src = tok_b; dst = tok_a; sr; rate = 1. /. p_star };
          ])
      default_pairs
  in
  Swapgraph.Router.make_exn edges
