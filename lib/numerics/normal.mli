(** Standard and general normal (Gaussian) distribution. *)

val cdf : ?mean:float -> ?stddev:float -> float -> float
(** Cumulative distribution function, computed via {!Special.erfc} so both
    tails keep full relative accuracy. *)

val sf : ?mean:float -> ?stddev:float -> float -> float
(** Survival function [1 - cdf], computed without cancellation. *)
