(** Mutable binary min-heap, the event queue of the discrete-event
    simulator. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum element without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. *)

val pop_exn : 'a t -> 'a
(** @raise Not_found on an empty heap. *)
