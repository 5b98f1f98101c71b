(** Minimal CSV support for (time, price) series — the interchange
    format for feeding recorded market data into the model (the paper's
    "simulation studies ... using real market data" direction).  No
    external dependency; tolerant of headers, blank lines and [#]
    comments. *)

val parse : string -> (Stochastic.Path.t, string) result
(** [parse contents] reads lines of [time,price] (floats; an optional
    non-numeric header line is skipped).  Errors carry the offending
    line number. *)

val load : string -> (Stochastic.Path.t, string) result
(** Reads and parses a file. *)
