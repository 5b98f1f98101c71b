(** Equilibrium cutoffs from backward induction (Section III-E).

    - [t4]: Bob always continues (claiming dominates; no cutoff).
    - [t3]: Alice continues iff [P_t3 > p_t3_low] (Eq. 18/19).
    - [t2]: Bob continues iff [P_t2] lies in {!p_t2_band} (Eq. 24).
    - [t1]: Alice initiates iff [P*] lies in {!p_star_band} (Eq. 30). *)

val p_t3_low : Params.t -> p_star:float -> float
(** Eq. 18:
    [e^{(r_A - mu) tau_b - r_A (eps_b + 2 tau_a)} P* / (1 + alpha_A)]. *)

val p_t2_band : Params.t -> p_star:float -> Intervals.t
(** The set of [P_t2] where [U^B_t2(cont) > U^B_t2(stop)] — typically a
    single interval [(P_t2_low, P_t2_high)], possibly empty when
    [alpha_B] is too small (Section III-E3). *)

val p_t2_band_endpoints : Params.t -> p_star:float -> (float * float) option
(** [(lo, hi)] of the band when it is a single interval; [None] when
    empty. *)

val p_star_band : ?quad_nodes:int -> Params.t -> Intervals.t
(** Feasible exchange rates: the set of rates where Alice's
    continuation utility at [t1] exceeds [P_star]; Eq. 29 evaluates to
    approximately (1.5, 2.5) under Table III defaults. *)

val p_star_band_endpoints :
  ?quad_nodes:int -> Params.t -> (float * float) option

val scan_domain : Params.t -> p_star:float -> float * float
(** The price interval [anchor * (1e-4, 1e4)], [anchor = max P* p0],
    searched for [t2] roots; shared by every [t2] region. *)

val p_star_domain : Params.t -> float * float
(** The rate interval [p0 * (0.05, 20)] searched for [t1] roots;
    shared by every feasible-rate region. *)

val t2_region : Params.t -> p_star:float -> (p_t2:float -> float) -> Intervals.t
(** [t2_region p ~p_star cont]: the prices where Bob's continuation
    value [cont] (a staged Eq. 21 variant) exceeds keeping Token_b
    (Eq. 23), by {!Intervals.positive_log} over {!scan_domain}.  Every
    [t2] region of the variants is one call. *)

val p_star_region : Params.t -> (float -> float) -> Intervals.t
(** [{ P* : net P* > 0 }] over {!p_star_domain}: every feasible-rate
    region is one call with its agent's net [t1] gain. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of the memo cache behind {!p_t3_low} and
    {!p_t2_band} — a thin reader over the [Obs.Metrics] counters
    [cutoff.cache.hits] / [cutoff.cache.misses].  Sweep experiments
    evaluating repeated [(params, p_star)] pairs hit the cache instead
    of re-running the region solver; the cache is mutex-protected and safe
    under the domain pool.  Counts freeze while metrics are disabled. *)

val cache_sizes : unit -> int * int
(** Current [(t3, band)] cache populations; each is bounded by the
    capacity (512). *)

val clear_caches : unit -> unit
(** Drop every memoized cutoff and reset {!cache_stats} and the
    [cutoff.cache.evictions] counter (tests). *)
