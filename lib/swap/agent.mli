(** Agent decision policies: how Alice decides at [t1]/[t3] and Bob at
    [t2]/[t4] given the price observed at that moment.

    The paper's agents are [rational] (Section III-E); [honest] agents
    follow the protocol unconditionally; [myopic] agents compare
    immediate exchange values and ignore optionality — a natural
    strawman showing why the full backward induction matters.  [t4] has
    no real decision: claiming strictly dominates (Section III-E1). *)

type decision = Cont | Stop

type t = {
  name : string;
  alice_t1 : p_star:float -> decision;
  bob_t2 : p_t2:float -> decision;
  alice_t3 : p_t3:float -> decision;
  bob_t4 : decision;  (** Always [Cont] for every sensible policy. *)
}

val rational : Params.t -> p_star:float -> t
(** The equilibrium policy: thresholds from {!Cutoff}. *)

val rational_collateral : Collateral.t -> p_star:float -> t
(** Equilibrium thresholds of the Section IV game. *)

val honest : t
(** Always continues — the protocol-designer's ideal participant. *)

val myopic : Params.t -> p_star:float -> t
(** Compares spot values only, with no discounting, success premium or
    look-ahead: Alice continues at [t3] iff the Token_b she would
    receive is worth at least the Token_a refund ([p_t3 >= p_star]);
    Bob continues at [t2] iff the Token_a he would receive is worth at
    least his Token_b ([p_t2 <= p_star]); Alice initiates iff the trade
    is not currently losing ([p0 >= p_star]). *)

(** {2 Retry policy}

    How an agent reacts when an action it submitted has not confirmed
    by the expected time (because the fault layer dropped or delayed
    it).  Resubmission is the only remedy — the decision itself is
    never revisited — and it is deadline-aware: the protocol runner
    only resubmits while the next attempt can still confirm within the
    relevant timelock. *)

type retry = {
  max_attempts : int;  (** Total submissions per action (>= 1). *)
  backoff : float;  (** Wait after the first unconfirmed attempt. *)
  backoff_factor : float;  (** Multiplier on successive waits. *)
}

val no_retry : retry
(** Single attempt — the paper's fire-and-forget agent. *)

val default_retry : retry
(** Up to 4 attempts with 0.5 h initial backoff, doubling. *)

val make_retry : ?backoff:float -> ?backoff_factor:float -> int -> retry
(** [make_retry n] allows [n] total attempts.
    @raise Invalid_argument if [n < 1], [backoff < 0] or
    [backoff_factor < 1]. *)
