open Numerics
open Stochastic

type outcome = Success | Abort_t1 | Abort_t2 | Abort_t3

type result = {
  trials : int;
  successes : int;
  abort_t1 : int;
  abort_t2 : int;
  abort_t3 : int;
  rate : float;
  initiated : int;
  ci95 : float * float;
  mean_utility_alice : float;
  mean_utility_bob : float;
}

type sampler = tau:float -> Rng.t -> p0:float -> float

let gbm_sampler (p : Params.t) : sampler = Gbm.sampler (Params.gbm p)

let jump_sampler jd : sampler =
 fun ~tau rng ~p0 -> Jump_diffusion.sample rng jd ~p0 ~tau

(* A trial writes each agent's realised utility, assessed at t1, into a
   float-only record: (1 + alpha S) * receipt value *
   e^{-r * (receipt time - t1)}, plus any deposit flows.  Only the
   outcome is returned, so a trial allocates no tuple and boxes no
   utility.  Both are unset on [Abort_t1]. *)
type utilities = { mutable ua : float; mutable ub : float }

type trial = Rng.t -> utilities -> outcome

(* One simulated swap.  Everything that depends only on the run's
   inputs — the t1 decision, the Eq. 13 timeline, its discount factors
   and the sampler's steps over tau_a, tau_b and 2 tau_b — is computed
   here, once per run.  Each hoisted value must be a whole subexpression
   of the utility it enters, so that every utility keeps its float
   association order and its bits. *)
let swap_trial (p : Params.t) ~p_star ~(policy : Agent.t) ~(sampler : sampler)
    : trial =
  match policy.Agent.alice_t1 ~p_star with
  | Agent.Stop -> fun _ _ -> Abort_t1
  | Agent.Cont ->
    let tl = Timeline.ideal p in
    let da horizon = exp (-.p.alice.r *. horizon) in
    let db horizon = exp (-.p.bob.r *. horizon) in
    let p0 = p.p0 in
    let step_a = sampler ~tau:p.tau_a and step_b = sampler ~tau:p.tau_b in
    let step_t7 = sampler ~tau:(2. *. p.tau_b) in
    (* Alice's refund arrives at t8 whenever the swap aborts. *)
    let u_alice_refund = p_star *. da (tl.Timeline.t8 -. tl.Timeline.t1) in
    let d_bob_t2 = db (tl.Timeline.t2 -. tl.Timeline.t1) in
    let d_bob_t7 = db (tl.Timeline.t7 -. tl.Timeline.t1) in
    let k_alice = 1. +. p.alice.alpha in
    let d_alice_t5 = da (tl.Timeline.t5 -. tl.Timeline.t1) in
    let u_bob_success =
      (1. +. p.bob.alpha) *. p_star *. db (tl.Timeline.t6 -. tl.Timeline.t1)
    in
    fun rng u ->
      let p_t2 = step_a rng ~p0 in
      match policy.Agent.bob_t2 ~p_t2 with
      | Agent.Stop ->
        (* Bob keeps Token_b now. *)
        u.ua <- u_alice_refund;
        u.ub <- p_t2 *. d_bob_t2;
        Abort_t2
      | Agent.Cont -> (
        let p_t3 = step_b rng ~p0:p_t2 in
        match policy.Agent.alice_t3 ~p_t3 with
        | Agent.Stop ->
          (* Alice waives: refunds at t8 (Alice) and t7 (Bob). *)
          let p_t7 = step_t7 rng ~p0:p_t3 in
          u.ua <- u_alice_refund;
          u.ub <- p_t7 *. d_bob_t7;
          Abort_t3
        | Agent.Cont ->
          (* Success: Alice receives Token_b at t5, Bob Token_a at t6. *)
          let p_t5 = step_b rng ~p0:p_t3 in
          u.ua <- k_alice *. p_t5 *. d_alice_t5;
          u.ub <- u_bob_success;
          Success)

(* --- parallel substrate ------------------------------------------------- *)

(* Trials are covered by fixed-size chunks; chunk [c] draws from its own
   generator [Rng.of_stream ~seed ~stream:c], so the sampled paths are a
   pure function of (seed, chunk size) and the result is bit-identical
   for any jobs count.  Per-chunk tallies are merged in chunk order. *)
let chunk_trials = 512

(* Experiment-wide trial-count override (CLI `experiment --trials`): when
   set, every run that would use its [?trials] argument uses this count
   instead.  Atomic so parallel experiments read it safely. *)
let trials_override : int option Atomic.t = Atomic.make None

let set_trials_override o =
  (match o with
  | Some n when n < 1 -> invalid_arg "Montecarlo.set_trials_override"
  | _ -> ());
  Atomic.set trials_override o

let effective_trials requested =
  match Atomic.get trials_override with Some n -> n | None -> requested

(* The utility sums live in a float-only record, stored unboxed, so
   tallying a trial allocates nothing. *)
type tally = {
  mutable n_success : int;
  mutable n_abort_t1 : int;
  mutable n_abort_t2 : int;
  mutable n_abort_t3 : int;
  mutable n_initiated : int;
  sum : utilities;
}

let tally () =
  {
    n_success = 0;
    n_abort_t1 = 0;
    n_abort_t2 = 0;
    n_abort_t3 = 0;
    n_initiated = 0;
    sum = { ua = 0.; ub = 0. };
  }

let record t outcome (u : utilities) =
  (match outcome with
  | Success -> t.n_success <- t.n_success + 1
  | Abort_t1 -> t.n_abort_t1 <- t.n_abort_t1 + 1
  | Abort_t2 -> t.n_abort_t2 <- t.n_abort_t2 + 1
  | Abort_t3 -> t.n_abort_t3 <- t.n_abort_t3 + 1);
  match outcome with
  | Abort_t1 -> ()
  | Success | Abort_t2 | Abort_t3 ->
    t.n_initiated <- t.n_initiated + 1;
    t.sum.ua <- t.sum.ua +. u.ua;
    t.sum.ub <- t.sum.ub +. u.ub

let merge acc t =
  acc.n_success <- acc.n_success + t.n_success;
  acc.n_abort_t1 <- acc.n_abort_t1 + t.n_abort_t1;
  acc.n_abort_t2 <- acc.n_abort_t2 + t.n_abort_t2;
  acc.n_abort_t3 <- acc.n_abort_t3 + t.n_abort_t3;
  acc.n_initiated <- acc.n_initiated + t.n_initiated;
  acc.sum.ua <- acc.sum.ua +. t.sum.ua;
  acc.sum.ub <- acc.sum.ub +. t.sum.ub;
  acc

let summarise ~trials (t : tally) =
  let initiated_n = t.n_initiated in
  let rate =
    if initiated_n = 0 then 0.
    else float_of_int t.n_success /. float_of_int initiated_n
  in
  let ci95 =
    if initiated_n = 0 then (0., 0.)
    else
      Stats.wilson_interval ~successes:t.n_success ~trials:initiated_n ~z:1.96
  in
  {
    trials;
    successes = t.n_success;
    abort_t1 = t.n_abort_t1;
    abort_t2 = t.n_abort_t2;
    abort_t3 = t.n_abort_t3;
    rate;
    initiated = initiated_n;
    ci95;
    mean_utility_alice =
      (if initiated_n = 0 then 0. else t.sum.ua /. float_of_int initiated_n);
    mean_utility_bob =
      (if initiated_n = 0 then 0. else t.sum.ub /. float_of_int initiated_n);
  }

let m_runs = Obs.Metrics.counter "mc.runs"
let m_trials = Obs.Metrics.counter "mc.trials"
let m_trials_per_s = Obs.Metrics.gauge "mc.trials_per_s"

(* Shared chunked driver for [run] and [run_collateral].  Probes sit at
   run and chunk granularity (a chunk is 512 trials), never per trial,
   and touch nothing the RNG streams depend on — instrumented runs stay
   bit-identical to uninstrumented ones for any jobs count. *)
let run_tallied ?jobs ~trials ~seed (trial : trial) =
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_trials trials;
  let t0 = if Obs.Metrics.enabled () then Obs.Monotonic.now_ns () else 0L in
  let total =
    Obs.Trace.with_span "mc.run" @@ fun run_span ->
    Obs.Trace.annotate run_span "trials" (string_of_int trials);
    Numerics.Pool.parallel_for_reduce ?jobs ~chunk_size:chunk_trials ~n:trials
      ~init:(tally ())
      ~body:(fun ~chunk ~lo ~hi ->
        Obs.Trace.with_span ~parent:run_span "mc.chunk" @@ fun chunk_span ->
        Obs.Trace.annotate chunk_span "chunk" (string_of_int chunk);
        let rng = Rng.of_stream ~seed ~stream:chunk () in
        let t = tally () in
        let u = { ua = 0.; ub = 0. } in
        for _ = lo to hi - 1 do
          record t (trial rng u) u
        done;
        t)
      ~combine:merge
  in
  if t0 <> 0L then begin
    let dt = Obs.Monotonic.elapsed_s ~since_ns:t0 in
    if dt > 0. then
      Obs.Metrics.set_gauge m_trials_per_s (float_of_int trials /. dt)
  end;
  summarise ~trials total

let run ?(trials = 20_000) ?(seed = 0x51ab) ?jobs ?sampler (p : Params.t)
    ~p_star ~policy =
  let trials = effective_trials trials in
  let sampler = Option.value ~default:(gbm_sampler p) sampler in
  run_tallied ?jobs ~trials ~seed (swap_trial p ~p_star ~policy ~sampler)

(* Collateral game: same path logic, but deposits flow per the Oracle
   rules and decisions use the Section IV thresholds.  Hoisted as in
   [swap_trial]. *)
let collateral_trial (c : Collateral.t) ~p_star ~(policy : Agent.t)
    ~(sampler : sampler) : trial =
  let p = c.Collateral.params in
  let qa = c.Collateral.q_alice and qb = c.Collateral.q_bob in
  match policy.Agent.alice_t1 ~p_star with
  | Agent.Stop -> fun _ _ -> Abort_t1
  | Agent.Cont ->
    let tl = Timeline.ideal p in
    let da horizon = exp (-.p.Params.alice.r *. horizon) in
    let db horizon = exp (-.p.Params.bob.r *. horizon) in
    let p0 = p.Params.p0 in
    let step_a = sampler ~tau:p.Params.tau_a in
    let step_b = sampler ~tau:p.Params.tau_b in
    let step_t7 = sampler ~tau:(2. *. p.Params.tau_b) in
    (* Bob forfeits at t2; Alice receives her refund at t8 plus both
       deposits released at t3, credited t3 + tau_a. *)
    let u_alice_forfeit =
      (p_star *. da (tl.Timeline.t8 -. tl.Timeline.t1))
      +. ((qa +. qb) *. da (tl.Timeline.t3 +. p.Params.tau_a -. tl.Timeline.t1))
    in
    let d_bob_t2 = db (tl.Timeline.t2 -. tl.Timeline.t1) in
    (* Bob's own deposit returns at t3 + tau_a in all t3 branches. *)
    let bob_deposit_back =
      qb *. db (tl.Timeline.t3 +. p.Params.tau_a -. tl.Timeline.t1)
    in
    let u_alice_refund = p_star *. da (tl.Timeline.t8 -. tl.Timeline.t1) in
    let d_bob_t7 = db (tl.Timeline.t7 -. tl.Timeline.t1) in
    let alice_deposit_to_bob =
      qa *. db (tl.Timeline.t4 +. p.Params.tau_a -. tl.Timeline.t1)
    in
    let k_alice = 1. +. p.Params.alice.alpha in
    let d_alice_t5 = da (tl.Timeline.t5 -. tl.Timeline.t1) in
    let alice_deposit_back =
      qa *. da (tl.Timeline.t4 +. p.Params.tau_a -. tl.Timeline.t1)
    in
    let u_bob_success =
      ((1. +. p.Params.bob.alpha)
      *. p_star
      *. db (tl.Timeline.t6 -. tl.Timeline.t1))
      +. bob_deposit_back
    in
    fun rng u ->
      let p_t2 = step_a rng ~p0 in
      match policy.Agent.bob_t2 ~p_t2 with
      | Agent.Stop ->
        u.ua <- u_alice_forfeit;
        u.ub <- p_t2 *. d_bob_t2;
        Abort_t2
      | Agent.Cont -> (
        let p_t3 = step_b rng ~p0:p_t2 in
        match policy.Agent.alice_t3 ~p_t3 with
        | Agent.Stop ->
          let p_t7 = step_t7 rng ~p0:p_t3 in
          u.ua <- u_alice_refund;
          u.ub <-
            (p_t7 *. d_bob_t7) +. bob_deposit_back +. alice_deposit_to_bob;
          Abort_t3
        | Agent.Cont ->
          let p_t5 = step_b rng ~p0:p_t3 in
          u.ua <- (k_alice *. p_t5 *. d_alice_t5) +. alice_deposit_back;
          u.ub <- u_bob_success;
          Success)

let run_collateral ?(trials = 20_000) ?(seed = 0x51ab) ?jobs ?sampler
    (c : Collateral.t) ~p_star =
  let trials = effective_trials trials in
  let p = c.Collateral.params in
  let sampler = Option.value ~default:(gbm_sampler p) sampler in
  let policy = Agent.rational_collateral c ~p_star in
  run_tallied ?jobs ~trials ~seed (collateral_trial c ~p_star ~policy ~sampler)
