(** Operational counterpart of {!Repeated}: a pair of agents trading
    repeatedly along one simulated price path under a grim-trigger
    norm — any strategic exit ends the relationship.  Each agent's
    stance fixes the thresholds they play:

    - [Faithful]: the Table III premium (reputation priced in);
    - [Opportunist]: a much smaller premium (0.1) — mostly pure asset
      values, defecting on moderate spot moves.

    The simulation shows the repeated-game logic in realised wealth:
    opportunists capture a slightly better exit now and then, but the
    stream they forfeit dominates. *)

type stance = Faithful | Opportunist

type ended = Horizon | Defection of { by : string; round : int }

type result = {
  rounds_completed : int;  (** Successful swaps before the end. *)
  alice_total : float;  (** Sum of realised per-swap utilities, discounted
                            to the relationship start. *)
  bob_total : float;
  ended : ended;
}

val run :
  ?seed:int -> ?rounds:int -> ?gap_hours:float -> ?q:float -> Params.t ->
  alice:stance -> bob:stance -> result
(** Simulates up to [rounds] (default 100) swaps spaced [gap_hours]
    (default 24) apart; each round trades at the SR-optimal rate for
    the current spot (computed once by homogeneity).  [q > 0] plays the
    collateralised (Section IV) game each round — deposits keep even
    opportunists in line, so relationships survive far longer. *)

val mean_totals :
  ?relationships:int -> ?seed:int -> ?rounds:int -> ?gap_hours:float ->
  ?q:float -> Params.t -> alice:stance -> bob:stance ->
  float * float * float
(** Averages over many relationships: (alice mean total, bob mean
    total, mean rounds completed). *)
