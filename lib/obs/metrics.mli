(** Global metrics registry: named counters, gauges, and log-linear
    duration histograms, designed to stay cheap and correct under
    [Numerics.Pool] domain fan-out.

    - {b Counters} shard their cells by domain id (summed on read), so
      concurrent increments never contend on a single atomic.
    - {b Gauges} are a single atomic float with [set] and high-water
      [max] updates.
    - {b Histograms} record integer-nanosecond durations and export
      seconds.  Buckets are log-linear: each power of two from 1 ns to
      2^44 ns (~4.9 h) is cut into 32 equal sub-buckets, so a bucket's
      midpoint is within {!relative_error} of every duration in it.
      Zero has its own bucket; 2^44 ns and up clamp into the top one.
      Counts live in per-domain plain-int shards, summed on read.

    Registration is idempotent: requesting an existing name returns the
    existing metric (mismatched kinds raise [Invalid_argument]).  All
    update probes honour a global {!set_enabled} flag; when disabled
    each probe is one atomic load and a branch — a few nanoseconds —
    and no value changes. *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
(** Globally enable/disable every update probe (reads still work).
    Enabled by default. *)

val enabled : unit -> bool

(** {1 Registration (idempotent, thread-safe)} *)

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

(** {1 Updates (domain-safe)} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set_gauge : gauge -> float -> unit

val max_gauge : gauge -> float -> unit
(** Raise the gauge to [v] if [v] exceeds the current value (CAS loop);
    used for high-water marks. *)

val observe_ns : histogram -> int -> unit
(** Record a duration in nanoseconds ([<= 0] counts as zero): no
    allocation (but a domain's first record allocates its shard) and
    no atomic read-modify-write.  Counts stay exact under concurrent
    domains; an exiting domain's shard, counts intact, goes to the next
    domain that records, so memory is bounded by the peak number of
    recording domains. *)

(** {1 Reads} *)

val counter_value : counter -> int
val gauge_value : gauge -> float

val reset_counter : counter -> unit
(** Zero one counter (e.g. [Swap.Cutoff.clear_caches]). *)

type hist_snapshot = {
  count : int;
  sum : float;  (** seconds *)
  buckets : (float * int) list;
      (** [(upper_bound_s, count)] for nonzero buckets, ascending. *)
}

val hist_value : histogram -> hist_snapshot

val hist_shards : histogram -> int
(** Shards allocated: at most the peak number of recording domains. *)

val relative_error : float
(** [1/64]: bounds [|estimate - x| / x] for a quantile whose exact
    nearest-rank value [x] lies in [[1 ns, 2^44 ns)]. *)

type hist_view = {
  v_count : int;  (** samples ever recorded *)
  v_sum : float;  (** their sum, seconds *)
  v_window : int;  (** samples in the trailing window *)
  v_window_s : float;  (** seconds the trailing window spans *)
  v_quantiles : float array;
      (** seconds; one per requested quantile, [nan] when the window
          is empty *)
}

val hist_view : histogram -> now_ns:int -> float array -> hist_view
(** The nearest-rank quantiles [qs] (ascending) of [h]'s trailing
    window, in one walk over the buckets: each is its bucket's midpoint
    (the lower edge for the clamped top bucket).  The window is
    reader-side state starting at the older of two bases; a read whose
    newer base is 10 s old or more re-bases (newer to older, current
    counts to newer).  Read every 10 s, it spans the last 10–20 s; the
    first read covers everything since registration (or the last
    {!rebase}), and [v_window_s] is [now_ns] minus the time the older
    base was taken.  [now_ns] is a {!Monotonic.now_int_ns} reading. *)

val rebase : histogram -> now_ns:int -> unit
(** Empty the trailing window as of [now_ns]. *)

type snapshot = {
  counters : (string * int) list;  (** Sorted by name. *)
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

val snapshot : unit -> snapshot
(** A consistent-enough point-in-time view of the whole registry
    (counters may be mid-update; each cell read is atomic). *)

(** {1 Exporters} *)

val schema : string
(** ["htlc-obs/v1"] — stamped into every exported document. *)

val to_json : snapshot -> string
(** One-line JSON object:
    [{"schema":"htlc-obs/v1","type":"metrics","counters":{...},
      "gauges":{...},"histograms":{...}}]. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition format (dots mapped to underscores).
    Histogram buckets are cumulative with a [+Inf] terminal equal to
    [_count]; the clamped top bucket (which absorbs every observation
    beyond its bound) is folded into [+Inf] rather than exported under
    a finite [le] it cannot vouch for. *)
