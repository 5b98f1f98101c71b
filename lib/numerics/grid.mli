(** Evenly spaced grids. *)

val linspace : lo:float -> hi:float -> n:int -> float array
(** [n] points from [lo] to [hi] inclusive.  @raise Invalid_argument if
    [n < 2]. *)

val arange : lo:float -> hi:float -> step:float -> float array
(** Points [lo, lo+step, ...] strictly below [hi].
    @raise Invalid_argument if [step <= 0.]. *)
