(** Descriptive statistics and confidence intervals. *)

type summary = {
  n : int;
  mean : float;
  variance : float;  (** Unbiased (n-1) sample variance. *)
  stddev : float;
  min : float;
  max : float;
}

val stddev : float array -> float

val summarize : float array -> summary
(** Single-pass Welford summary.  @raise Invalid_argument on empty. *)

val wilson_interval : successes:int -> trials:int -> z:float -> float * float
(** Wilson score interval for a binomial proportion — the right interval
    for Monte-Carlo success rates, well behaved near 0 and 1.
    [z] is the normal critical value (1.96 for 95%).
    @raise Invalid_argument if [trials <= 0] or [successes] is outside
    [[0, trials]]. *)
