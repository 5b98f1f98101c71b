(** Interpolation: bilinear lookup on rectangular grids.  Used to
    precompute expensive model surfaces (e.g. SR-optimal quotes over
    calibrated parameters) once and query them cheaply. *)

module Bilinear : sig
  type t

  val create : xs:float array -> ys:float array -> values:float array array -> t
  (** [values.(i).(j)] at [(xs.(i), ys.(j))]; both axes strictly
      increasing; entries may be [nan] for "no data".
      @raise Invalid_argument on shape or ordering errors. *)

  val eval : t -> x:float -> y:float -> float option
  (** Bilinear interpolation inside the grid; [None] outside the hull
      or when any of the four surrounding values is [nan]. *)
end
