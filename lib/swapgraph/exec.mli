(** Full protocol execution of a swap graph on simulated chains — the
    N-party generalisation of the 2-party HTLC run.  One chain per arc,
    all locks hashed to the leader's secret, locks confirmed level by
    level, claims cascading along the timelock schedule; final HTLC
    states classify the run. *)

type decision = Cont | Stop

type outcome =
  | Success
  | Abort_at_lock of int
      (** Party declined (or was offline) before locking; earlier
          levels refund at expiry. *)
  | Abort_no_reveal  (** All locked but the leader withheld the secret. *)
  | Anomalous of string
      (** Mixed claimed/refunded final states — atomicity broken (e.g.
          a party crashed mid-cascade and missed its claim). *)

type result = {
  outcome : outcome;
  deltas : (float * float) array;
      (** Per party: (outgoing-asset change, incoming-asset change),
          summed over its arcs. *)
  trace : (float * string) list;
}

val run :
  ?decisions:(int -> price:float -> decision) ->
  ?offline:(int * float) list ->
  ?prices:(int -> float -> float) ->
  ?seed:int ->
  Graph.t ->
  Timelock.schedule ->
  result
(** [decisions v ~price] is party [v]'s choice at its action point
    (leader: the reveal; others: before their locks) given the price of
    its deciding leg; default: everyone continues.  [offline] lists
    (party, crash time) pairs.  [prices a t] is arc [a]'s price at time
    [t] (default: constant 2).  [seed] feeds only the secret
    generation. *)
