(** Two-player normal-form (bimatrix) games — the simultaneous-move
    complement of the sequential {!Game} trees.  Used for the [t1]
    stage of the collateral game, where the paper has both agents
    decide {e simultaneously} whether to engage (Section IV-4). *)

type t = {
  row_actions : string array;
  col_actions : string array;
  row_payoffs : float array array;  (** [row_payoffs.(i).(j)]. *)
  col_payoffs : float array array;
}

val create :
  row_actions:string array -> col_actions:string array ->
  row_payoffs:float array array -> col_payoffs:float array array -> t
(** @raise Invalid_argument on shape mismatches or empty action sets. *)

val pure_nash : t -> (int * int) list
(** All pure-strategy Nash equilibria (action-index pairs), row-major
    order.  Weak inequalities: ties count as best responses. *)
