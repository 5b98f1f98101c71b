(** Herlihy's timelock assignment for swap digraphs, generalising the
    n-party cycle schedule: locks confirm level by level away from the
    leader, claims cascade back from the leader with a per-level
    stagger of [eps + slack], and every expiry sits exactly one
    confirmation after its claim (tight schedule).  On an n-cycle with
    no slack: lock phase [n tau], arc [j]'s expiry
    [(n+1) tau + (n-1-j) eps]. *)

type schedule = {
  tau : float;  (** Per-chain confirmation time (hours). *)
  eps : float;  (** Mempool/stagger delay per claim level. *)
  slack : float;  (** Extra safety margin added to each level's stagger. *)
  lock_time : float array;  (** Per arc (canonical order): lock submit time. *)
  claim_time : float array;  (** Per arc: happy-path claim submit time. *)
  expiry : float array;  (** Per arc: refund deadline, [claim_time + tau]. *)
  lock_phase_end : float;  (** All locks confirmed: [(max_depth + 1) tau]. *)
  horizon : float;  (** Safe simulation end (every refund settled). *)
}

val assign : ?slack:float -> Graph.t -> tau:float -> eps:float -> schedule
(** @raise Invalid_argument on [tau <= 0], [eps < 0] or [slack < 0]. *)

val validate : Graph.t -> schedule -> (unit, string) result
(** Checks the Herlihy-order invariants: locks on the level grid,
    claims after the lock phase, claim windows at least one
    confirmation long, and expiries strictly decreasing as the
    sender's leader distance grows. *)

val exposure_hours : Graph.t -> schedule -> float array
(** Per vertex: hours its outgoing collateral is at risk if
    counterparties grief (lock-until-expiry, summed over out-arcs). *)
