(** Sampled time series (price paths). *)

type t = private { times : float array; values : float array }

val create : times:float array -> values:float array -> t
(** @raise Invalid_argument if lengths differ, arrays are empty, or
    [times] is not strictly increasing. *)

val at : t -> float -> float
(** [at p t] — value at time [t] by previous-tick (right-continuous step)
    interpolation: the value of the latest sample time [<= t].
    @raise Invalid_argument if [t] precedes the first sample. *)

val log_returns : t -> float array
(** Log returns between consecutive samples (length [n - 1]).
    @raise Invalid_argument if any value is nonpositive. *)

val realized_volatility : t -> float
(** Annualised-per-unit-time realised volatility:
    stddev of log returns divided by sqrt of mean sample spacing. *)
