(** Two-state Markov regime-switching volatility — the synthetic
    stand-in for real market data (calm/turbulent alternation is the
    dominant stylised fact the plain GBM misses, and exactly the
    mechanism behind the Bisq observation that failures concentrate in
    volatile periods). *)

type spec = {
  mu : float;  (** Drift per hour (shared across regimes). *)
  sigma_calm : float;
  sigma_turbulent : float;
  to_turbulent : float;
      (** Per-hour hazard of switching calm -> turbulent. *)
  to_calm : float;  (** Per-hour hazard of switching back. *)
}

val default_spec : spec
(** Calm sigma 0.06, turbulent 0.25, mean calm spell ~200 h, mean
    turbulent spell ~50 h (a crypto-like 20% turbulent share). *)

val validate : spec -> (unit, string) result

type state = Calm | Turbulent

val state_to_string : state -> string

val stationary_turbulent_share : spec -> float
(** Long-run fraction of time in the turbulent state. *)

val sample_states :
  Numerics.Rng.t -> spec -> dt:float -> steps:int -> state array
(** The Markov chain alone, without prices — cheap for very long
    horizons (avoids floating-point price underflow over geological
    sample sizes). *)

val sample :
  Numerics.Rng.t -> spec -> p0:float -> dt:float -> steps:int ->
  Stochastic.Path.t * state array
(** Simulates [steps] increments of size [dt] (hours): the state
    follows the Markov chain; within a step the price moves as a GBM
    with the state's volatility.  Returns the path (times start at
    [dt]) and the state at each sample. *)

val state_at : state array -> dt:float -> t:float -> state
(** State governing time [t] in a path produced by {!sample}. *)
