(** A resilient [htlc-serve/v1] line client: reconnecting transport,
    per-request deadline, capped exponential backoff with deterministic
    seeded jitter, and idempotent retry keyed on the request id.

    {b Retry safety.}  Retries resend the same request line on a fresh
    connection.  By the engine's byte-identity contract a response body
    is a pure function of the canonical request bytes, and a duplicate's
    only server-side effect is a cache hit — so at-least-once delivery
    gives the caller exactly-once results.  (A retried [health] request
    may legitimately observe different live state.)

    {b Corruption detection.}  A response line must parse as JSON and
    echo the request's id ([null] for id-less requests); anything else —
    a truncated line, an interleaved or replayed response — poisons the
    connection and triggers a retry rather than reaching the caller.

    {b Determinism.}  Backoff jitter comes from a seeded [Numerics.Rng]
    owned by the client, one draw per retry: for a fixed seed and a
    fixed fault schedule (e.g. a {!Chaos} plan) the retry/backoff
    decision sequence is bit-reproducible; only the sleeps take wall
    time.

    A client is single-owner: one domain drives {!call} at a time (the
    chaos bench gives each load-generator domain its own client). *)

exception Broken of string
(** A transport-level failure injected or detected mid-call (the
    {!Chaos} wrapper raises it); the client drops the connection and
    retries. *)

type io = {
  send_bytes : string -> unit;  (** Write raw bytes and flush. *)
  recv_line : unit -> string;
      (** Next response line; raises [End_of_file] on EOF. *)
  close : unit -> unit;  (** Idempotent. *)
}
(** A byte-granular connection — byte-level [send_bytes] (rather than a
    line primitive) is what lets the chaos wrapper tear writes
    mid-line. *)

type dialer = unit -> io
(** Establishes a fresh connection; raises (e.g. [Unix.Unix_error]) on
    refusal.  Wrap one with [Chaos.wrap] to inject faults. *)

val socket_dialer : path:string -> dialer
(** Dial the Unix-domain socket at [path]. *)

type t

val create :
  ?dialer:dialer ->
  ?path:string ->
  ?max_attempts:int ->
  ?base_backoff_s:float ->
  ?max_backoff_s:float ->
  ?deadline_s:float ->
  ?seed:int ->
  unit ->
  t
(** A client over [dialer] (or [socket_dialer ~path]; one of the two is
    required).  Connection is lazy — nothing is dialed until the first
    {!call}.  [max_attempts] (default 6) bounds tries per call;
    backoff for attempt [k] is
    [min max_backoff_s (base_backoff_s * 2^(k-1))] scaled by a jitter
    factor in [[0.5, 1.0)] drawn from the client's [seed]ed RNG
    (defaults 1ms base, 250ms cap).  [deadline_s] (default none) bounds
    each call's total wall time including backoff sleeps.
    @raise Invalid_argument on a missing dialer/path or non-positive
    bounds. *)

type error = {
  code : string;
      (** ["unavailable"] (attempts exhausted) or ["deadline_exceeded"]
          (the client-side deadline). *)
  message : string;
  attempts : int;  (** Attempts actually made. *)
}

val call : t -> string -> (string, error) result
(** Send one request line (newline appended) and return the verified
    response line.  Dials or re-dials as needed; on a torn write, EOF,
    reset, corrupt response, or {!Broken} it drops the connection,
    backs off, and retries until [max_attempts] or the deadline.
    [Error _] never leaves a live connection behind. *)

val close : t -> unit
(** Drop the current connection, if any.  The client remains usable —
    the next {!call} re-dials. *)

type stats = {
  calls : int;
  retries : int;  (** Attempts beyond the first, across all calls. *)
  reconnects : int;  (** Re-dials after the first successful dial. *)
  failures : int;  (** Calls that returned [Error _]. *)
}

val stats : t -> stats
(** Per-client exact counts; [serve.client.*] in [Obs.Metrics] carries
    the process-wide mirrors. *)
