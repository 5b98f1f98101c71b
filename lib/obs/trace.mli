(** Span tracing over the {!Monotonic} clock.

    Disabled by default: {!with_span} then costs one atomic load and
    runs its body with a shared dummy span (annotations and [finish] on
    it are no-ops).  When enabled, spans record name, start/duration,
    string annotations, and parent/child nesting — explicit via
    [?parent], or implicit through a per-domain stack maintained by
    {!with_span}.  Finished spans land in a bounded ring buffer
    (default 4096), so tracing never grows without bound. *)

type span

type finished = {
  f_id : int;
  f_parent : int option;
  f_name : string;
  f_start_ns : int64;
  f_stop_ns : int64;
  f_annotations : (string * string) list;
}

val set_enabled : bool -> unit
(** Turn tracing on/off globally (off by default). *)

val enabled : unit -> bool

val with_span : ?parent:span -> string -> (span -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span: started now, finished
    when [f] returns or raises.  Nested [with_span] calls on the same
    domain parent automatically. *)

val start : ?parent:span -> string -> span
(** Manual lifecycle (no implicit nesting): pair with {!finish}. *)

val finish : span -> unit
(** Stop the clock and push the span into the ring; idempotent. *)

val annotate : span -> string -> string -> unit
(** Attach a key/value annotation (kept in insertion order). *)

val emit :
  ?parent:int ->
  name:string ->
  start_ns:int64 ->
  stop_ns:int64 ->
  annotations:(string * string) list ->
  unit ->
  int
(** Push an already-timed span into the ring, bypassing the global
    {!enabled} gate, and return its id.  For samplers that keep their
    own admission policy (e.g. the serve telemetry layer promoting a
    deterministic ~1/256 of requests to spans). *)

val spans : unit -> finished list
(** Ring contents, oldest first. *)

val span_count : unit -> int
(** [List.length (spans ())], without copying the ring. *)

val dropped : unit -> int
(** Spans lost to ring overwrite since the last {!clear} /
    {!set_capacity} (the cumulative count is also surfaced as the
    ["trace.dropped"] counter in {!Metrics} snapshots). *)

val clear : unit -> unit

val set_capacity : int -> unit
(** Resize the ring (drops current contents).
    @raise Invalid_argument when [< 1]. *)

val to_jsonl : finished -> string
(** One JSON object (no newline):
    [{"schema":"htlc-obs/v1","type":"span","id":..,"parent":..,
      "name":..,"start_ns":..,"dur_ns":..,"annotations":{..}}]. *)

val write_jsonl : out_channel -> unit
(** Dump the ring as JSONL, one span per line, oldest first. *)
