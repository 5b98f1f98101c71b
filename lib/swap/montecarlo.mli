(** Monte-Carlo simulation of the swap game: sample price paths, apply
    the agents' policies at each decision point, and record outcomes and
    realised utilities.  Cross-validates the analytic success rate
    (Eq. 31/40) and supports policies and price processes beyond the
    closed-form model (e.g. jump diffusions). *)

type outcome = Success | Abort_t1 | Abort_t2 | Abort_t3

type result = {
  trials : int;
  successes : int;
  abort_t1 : int;
  abort_t2 : int;
  abort_t3 : int;
  rate : float;  (** Successes / trials {e given initiation} (the paper's
                     SR conditions on the swap having started; aborts at
                     [t1] mean zero initiations everywhere). *)
  initiated : int;
  ci95 : float * float;  (** Wilson 95% interval on [rate]. *)
  mean_utility_alice : float;
      (** Realised [(1 + alpha S) V] discounted to [t1], averaged over
          initiated trials. *)
  mean_utility_bob : float;
}

type sampler = tau:float -> Numerics.Rng.t -> p0:float -> float
(** One-step price transition sampler, staged per step length:
    [sampler ~tau] returns the draw of [P_{t+tau}] given [P_t = p0].  A
    run applies it to [tau_a], [tau_b] and [2 tau_b] once, so whatever a
    sampler can compute from [tau] alone (the GBM drift and [sigma
    sqrt tau]) is computed once per run, not once per draw. *)

val gbm_sampler : Params.t -> sampler
(** Exact lognormal transitions of the paper's model
    ({!Stochastic.Gbm.sampler}). *)

val jump_sampler : Stochastic.Jump_diffusion.t -> sampler
(** Fat-tailed alternative for the robustness ablation. *)

val run :
  ?trials:int -> ?seed:int -> ?jobs:int -> ?sampler:sampler -> Params.t ->
  p_star:float -> policy:Agent.t -> result
(** Simulates [trials] independent swaps (default 20_000).

    Trials are executed in fixed-size chunks on the domain pool
    ({!Numerics.Pool}), each chunk drawing from its own generator
    [Rng.of_stream ~seed ~stream:chunk]; the result is therefore
    {e bit-identical for any [jobs] count} (default: the pool's global
    setting). *)

val run_collateral :
  ?trials:int -> ?seed:int -> ?jobs:int -> ?sampler:sampler -> Collateral.t ->
  p_star:float -> result
(** Section IV game under the rational-with-collateral policy; realised
    utilities include deposits returned/forfeited per the Oracle rules.
    Seed-stable parallel execution as in {!run}. *)

val set_trials_override : int option -> unit
(** Process-wide override of the trial count: when [Some n], {!run}
    and {!run_collateral} simulate [n] trials
    regardless of their [?trials] argument — wired to the CLI's
    [experiment --trials] so simulation-heavy experiments can be scaled
    up or down without recompiling; [None] (the default) restores the
    per-call counts.  @raise Invalid_argument on [Some n] with [n < 1]. *)
