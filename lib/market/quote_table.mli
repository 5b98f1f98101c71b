(** Precomputed quoting surface: the SR-optimal exchange rate and its
    success rate over a grid of calibrated (mu, sigma), interpolated
    bilinearly.  Building the table costs one sweep of full solves
    (fanned out over the domain pool); each subsequent quote is
    microseconds — what a trading venue would actually deploy, what
    makes large backtests cheap, and what the serve engine warm-builds
    at startup. *)

type t

type quote = { p_star : float; sr : float }

type reason =
  | Outside_grid  (** (mu, sigma) falls outside the table's hull. *)
  | Infeasible_neighbor
      (** Inside the hull, but a surrounding grid node had no feasible
          rate, so interpolation is undefined there. *)
  | Non_positive_spot  (** [spot <= 0] can never be quoted. *)

val reason_to_string : reason -> string
(** Stable snake_case rendering (serve error codes). *)

val build :
  ?mus:float array -> ?sigmas:float array -> Swap.Params.t -> t
(** Solves [Swap.Success.maximize] at every grid node (relative to the
    base parameters; [p0] is factored out by quoting the {e ratio}
    [p_star / p0], so one table serves every spot level).  Defaults:
    mus from -0.01 to 0.01 (9 nodes), sigmas from 0.02 to 0.16 (8
    nodes).  Infeasible nodes are left as gaps: quotes next to one
    return [Error Infeasible_neighbor].  Nodes are solved in parallel on
    {!Numerics.Pool}; the table is identical at any jobs count. *)

val lookup :
  t -> mu:float -> sigma:float -> spot:float -> (quote, reason) result
(** Interpolated quote at the calibrated parameters, scaled to the
    current spot; the error says {e why} no quote exists, so a service
    can map each case to a distinct error code. *)

val quote : t -> mu:float -> sigma:float -> spot:float -> quote option
(** {!lookup} with the reason discarded. *)

val nodes : t -> int * int
(** Grid dimensions (mus, sigmas). *)

