(** The bridge from the paper's 2-party model to [lib/swapgraph]:
    per-leg rational policies, graph-game payoffs and the served token
    universe, built from {!Params}/{!Cutoff}/{!Success}.

    Conventions: identical legs with unit notional per arc, Bob-side
    calibration (premium [bob.alpha] per incoming leg, time-value
    [bob.r] per locked hour). *)

val schedule :
  ?slack:float -> Params.t -> Swapgraph.Graph.t -> Swapgraph.Timelock.schedule
(** Herlihy assignment with [tau = tau_b], [eps = eps_b]. *)

val uniform_policy : Params.t -> p_star:float -> Swapgraph.Mc.policy
(** Every party applies the 2-party rule with the {e baseline} cutoffs,
    identical at every depth (the n-party cyclic-swap semantics). *)

val depth_aware_policy :
  Params.t ->
  p_star:float ->
  Swapgraph.Graph.t ->
  Swapgraph.Timelock.schedule ->
  Swapgraph.Mc.policy
(** Each party's cutoffs recomputed with [tau_b] stretched to its own
    leg's lock-to-claim window: deeper parties (and heavier slack)
    rationally demand narrower bands. *)

val griefing_value :
  Params.t -> Swapgraph.Graph.t -> Swapgraph.Timelock.schedule -> float array
(** Per vertex: time-value rate times {!Swapgraph.Timelock.exposure_hours}. *)

val payoffs :
  Params.t ->
  Swapgraph.Graph.t ->
  Swapgraph.Timelock.schedule ->
  Swapgraph.Game.payoffs
(** Premium on incoming legs minus time-value on outgoing locks;
    aborts cost exactly the already-locked parties their time-value. *)

val default_universe : ?base:Params.t -> unit -> Swapgraph.Router.t
(** The served token universe: BTC/ETH/SOL/USDC/XMR mapped onto chain
    technologies, pairs priced by the 2-party solver at each pair's
    SR-optimal rate.  Deliberately sparse so multi-hop routing has
    work to do. *)
