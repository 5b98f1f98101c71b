(** Request telemetry for the serve stack: per-request stage clocks
    recorded into log-linear [Obs.Metrics] histograms, a deterministic
    trace sampler, and a bounded flight recorder dumped as htlc-obs/v1
    JSONL.  Each finished request is recorded once per structure: the
    [total] stage histogram is also the request count and rate.

    Telemetry never touches response bytes: the byte-identity contract
    holds with telemetry on or off.  When disabled, {!make} returns a
    shared dummy clock and every stamp is one bool load. *)

(** {1 Global switches} *)

val set_enabled : bool -> unit
(** On by default.  Disabling stops new clocks (in-flight real clocks
    still finalise). *)

val enabled : unit -> bool

val set_sample_every : int -> unit
(** Promote ~1/n of requests to full [Obs.Trace] spans (default 256;
    [1] = every request — what the telemetry smoke forces).
    @raise Invalid_argument when [< 1]. *)

val sample_every : unit -> int

val should_sample_id : string option -> bool
(** The sampling decision — a pure function of the request id (FNV-1a
    of the id, empty string when [None], mod {!sample_every}), so the
    sampled set is identical at any shard count and across replays of
    the same corpus. *)

(** {1 Stage clock}

    Stamps are monotonic timestamps as tagged [int] nanoseconds
    ({!Obs.Monotonic.now_int_ns} — an [int64] would box on every
    mutable-field store, the dominant telemetry cost at serve
    throughput): read-complete (at {!make}), decode, cache-lookup,
    compute-start/end, encode, and flush (at {!finish}).
    All mutators are no-ops on the dummy clock. *)

type clock

val none : clock
(** The shared dummy clock (what disabled transports pass around). *)

val make : codec:string -> read_ns:int -> clock
(** New clock for a request whose bytes finished arriving at
    [read_ns]; [codec] is ["json"], ["binary"] or ["pipe"].  Returns
    {!none} when telemetry is disabled. *)

val is_real : clock -> bool

val reinit : clock -> codec:string -> read_ns:int -> clock
(** Reset a finalized real clock for its next request on the same
    transport, avoiding the per-request allocation ({!finish} copies
    the record into the flight recorder rather than retaining it, so a
    finalized clock has no other owner).  Falls back to {!make} when
    [c] is not a finalized real clock, and to {!none} when telemetry
    is disabled. *)

val now_ns : unit -> int
val stamp_decode : clock -> unit
val stamp_cache : clock -> hit:bool -> unit
val stamp_compute_start : clock -> unit
val stamp_compute_stop : clock -> unit
val stamp_encode : clock -> unit
val set_kind : clock -> string -> unit
val set_id : clock -> string option -> unit
val set_status : clock -> string -> unit

val finish : clock -> flush_ns:int -> unit
(** Finalise: record each stage duration once into its
    [serve.stage.*_s] histogram and the total once more into
    [serve.latency.<kind>.<codec>_s], push the record into the flight
    recorder, and — when {!should_sample_id} selects it — emit a
    ["serve.request"] span with per-stage annotations.  Idempotent. *)

val finish_now : clock -> unit
(** {!finish} at the current monotonic time. *)

val stats_json : unit -> string
(** The `stats` request result: one JSON object with [telemetry],
    [rate], [latency], [stages], [recorder], and [trace] sections.
    [rate] comes from the same read of the [total] stage histogram as
    the [stages] row: [total] is its count, [window_s] the seconds its
    trailing window spans, and [rps] the window's count over
    [window_s].  [latency] holds one row per (kind, codec) and
    [stages] one per stage, in stage order (decode, cache, compute,
    encode, flush, total), each only when its histogram's trailing
    window holds samples ({!Obs.Metrics.hist_view}: the last 10–20 s
    when read at least every 10 s).  Quantiles are within
    [Obs.Metrics.relative_error] of the exact nearest-rank values.
    Live state — never cached, outside the byte-identity contract. *)

(** {1 Flight recorder} *)

val set_recorder_capacity : int -> unit
(** Replace the recorder with an empty one bounded at ~n records
    (rounded up to 8 x a power of two).
    @raise Invalid_argument when [< 8]. *)

val recorder_capacity : unit -> int
val recorder_recorded : unit -> int
val recorder_pushed : unit -> int
val recorder_dropped : unit -> int

val write_recorder : ?reason:string -> out_channel -> unit
(** Dump as htlc-obs/v1 JSONL: one [{"type":"recorder",...}] header
    line (reason, bounds, drop count), then one
    [{"type":"request",...}] line per held record, oldest first. *)

val set_dump_path : string option -> unit
(** Configure where {!dump_to_path} writes (e.g. from
    [swap_cli serve --recorder-dump]); [None] (default) makes crash
    triggers no-ops. *)

val dump_to_path : reason:string -> unit
(** Dump the recorder to the configured path, if any.  I/O errors are
    swallowed: a failed dump must never escalate an absorbed handler
    crash into a server death. *)

val reset : unit -> unit
(** Empty the histograms' trailing windows (their cumulative counts
    stay) and the recorder (tests and the socket smoke). *)
