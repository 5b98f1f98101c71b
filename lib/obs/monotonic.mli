(** Process-wide non-decreasing clock (nanosecond units).  Backed by
    [CLOCK_MONOTONIC] through a noalloc external — one vDSO call, no
    allocation, no runtime-lock release — so it is cheap enough for
    per-request telemetry stamps.  Linux guarantees the reading never
    decreases across cores or domains, so span durations and latency
    samples are always nonnegative.  The base is boot-relative, not the
    epoch: only differences between readings are meaningful. *)

val now_ns : unit -> int64
(** Current [CLOCK_MONOTONIC] reading in nanoseconds. *)

val now_int_ns : unit -> int
(** {!now_ns} as a tagged [int] — no [int64] box is allocated, which
    is what per-request telemetry stamps want.  63 bits of boot-relative
    nanoseconds overflow after ~146 years. *)

val elapsed_s : since_ns:int64 -> float
(** Seconds elapsed since a previous {!now_ns} reading ([>= 0.]). *)
