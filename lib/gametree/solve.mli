(** Backward induction (subgame-perfect equilibrium) for finite
    extensive-form games with perfect information. *)

type solved =
  | S_terminal of { payoffs : float array; label : string }
  | S_decision of {
      player : int;
      node_label : string;
      value : float array;
      chosen : string;  (** Action selected at the equilibrium. *)
      branches : (string * solved) list;
    }
  | S_chance of {
      node_label : string;
      value : float array;
      branches : (float * solved) list;
    }

val solve : Game.t -> solved
(** Solves the game by backward induction.  At a decision node the
    owning player picks the action maximising her own expected value; a
    {e strictly} better action is required to displace an earlier one,
    so ties resolve to the action listed first (the paper resolves
    Alice's [t3] tie to [stop]; order the action list accordingly). *)

val value : solved -> float array
(** Equilibrium expected payoffs at the node. *)

val outcome_probability : solved -> (string -> bool) -> float
(** [outcome_probability s pred] — equilibrium probability of reaching a
    terminal node whose label satisfies [pred].  At decision nodes the
    chosen branch has probability 1. *)
