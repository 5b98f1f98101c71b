(** Windowed event-rate meter (events/s over a trailing window).

    A ring of per-second counting slots on the {!Monotonic} clock.
    [observe_at] is wait-free apart from a benign slot-reset race on
    second rollover (a rare lost increment in the windowed view); the
    cumulative {!total} stays exact. *)

type t

val create : ?window_s:int -> unit -> t
(** [create ()] meters rates over up to [window_s] (default 64,
    rounded up to a power of two) trailing seconds.
    @raise Invalid_argument when [window_s < 1]. *)

val observe_at : t -> now_ns:int -> unit
(** Count one event at an explicit timestamp as tagged-[int]
    nanoseconds, {!Monotonic.now_int_ns}'s units — the per-request
    caller already holds an [int] stamp, and an [int64] would box. *)

val total : t -> int
(** Events ever observed (exact). *)

val per_second : t -> window_s:int -> float
(** Mean events/s over the trailing [window_s] seconds (clamped to the
    ring length); 0 when nothing was observed in the window. *)

val per_second_at : t -> window_s:int -> now_ns:int -> float
(** [per_second] against an explicit "now" (tests). *)

val events_in_window : t -> window_s:int -> now_ns:int -> int
(** Raw event count inside the trailing window. *)

val reset : t -> unit
