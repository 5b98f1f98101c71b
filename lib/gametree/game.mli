(** Finite extensive-form games with perfect information and chance
    nodes, in the style of Osborne & Rubinstein (1994), ch. 6 — the
    formal setting the paper builds on.

    A game is a tree whose internal nodes are either decision nodes
    (one player chooses among labelled actions) or chance nodes
    (nature selects a branch with a fixed probability).  Leaves carry a
    payoff per player. *)

type t =
  | Terminal of { payoffs : float array; label : string }
      (** Leaf: [payoffs.(i)] is player [i]'s utility; [label] describes
          the outcome (e.g. ["success"]). *)
  | Decision of { player : int; node_label : string; actions : (string * t) list }
      (** [player] chooses one of [actions] (tried in list order). *)
  | Chance of { node_label : string; branches : (float * t) list }
      (** Nature moves; probabilities must be positive and sum to 1. *)

val terminal : ?label:string -> float array -> t
val decision : ?label:string -> player:int -> (string * t) list -> t
(** @raise Invalid_argument on an empty action list. *)

val chance : ?label:string -> (float * t) list -> t
(** @raise Invalid_argument if probabilities are not positive or do not
    sum to 1 within [1e-9]. *)

val size : t -> int
(** Total node count. *)

val validate : t -> (unit, string) result
(** Checks probability normalisation, payoff-arity consistency and
    player-index bounds in one pass. *)
