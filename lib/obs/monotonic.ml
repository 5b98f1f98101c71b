(* A process-wide non-decreasing clock.  The stdlib offers no monotonic
   clock, so we use the bechamel CLOCK_MONOTONIC stub: a noalloc
   external returning an unboxed int64 — one vDSO call, no float
   boxing, no runtime-lock release.  That matters because telemetry
   stamps it up to seven times per served request; the previous
   gettimeofday-plus-global-CAS implementation cost ~10% of serve
   throughput.  Linux guarantees CLOCK_MONOTONIC never decreases across
   cores, so no clamping is needed (NTP steps and VM wall-clock jumps
   don't move it).  The base is boot-relative: only differences are
   meaningful. *)

let now_ns () = Monotonic_clock.now ()

(* As a tagged [int]: the external returns an unboxed int64, so the
   conversion compiles without allocating the box an [int64] return
   value would need — this is the variant per-request stamps use.
   63 bits of nanoseconds since boot overflows after ~146 years. *)
let now_int_ns () = Int64.to_int (Monotonic_clock.now ())

let elapsed_s ~since_ns =
  Int64.to_float (Int64.sub (now_ns ()) since_ns) /. 1e9
