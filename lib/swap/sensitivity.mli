(** Parameter sweeps behind Figure 6: how the success-rate curve
    over exchange rates responds to the success premia, time preferences,
    confirmation times, drift and volatility. *)

type variant = { label : string; params : Params.t }

type sweep_result = {
  variant : variant;
  feasible : (float * float) option;  (** [P*] band; [None] = non-viable. *)
  curve : Success.point array;  (** Empty when non-viable. *)
  best : Success.point option;  (** SR-maximising point. *)
}

val fig6_panels : ?base:Params.t -> unit -> (string * variant list) list
(** The eight panels of Figure 6: variations of [alpha_A], [alpha_B],
    [r_A], [r_B], [tau_a], [tau_b], [mu], [sigma] around the Table III
    defaults (default [base]).  The default value is always included
    and labelled ["default"]. *)

val sweep : ?quad_nodes:int -> ?n:int -> variant list -> sweep_result list
(** Evaluates each variant's feasible band and SR curve ([n] grid
    points, default 41). *)
