(** Transports for the swap-quote service (stdlib [Unix] only).

    {!serve_pipe} answers synchronously on the caller — one client,
    natural backpressure, deterministic output for a fixed script.

    The socket server owns the bind/unlink lifecycle of the path and
    hands connections to {!Reactor}: a fixed set of shard domains
    multiplexing non-blocking connections, speaking newline-delimited
    [htlc-serve/v1] JSON or length-prefixed [htlc-serve/b1] binary per
    first-bytes negotiation, with request pipelining and response
    batching.  Responses come back in request order per connection.

    {b Fault behaviour.}  Torn reads, writes into reset/closed
    connections and protocol violations are counted and classified
    under [serve.connection_errors] (sub-counters [.epipe],
    [.econnreset], [.sys_error], [.unix_error], [.handler_crash],
    [.protocol]) and the connection slot is reclaimed — a bad peer
    never takes the server down.  A client hanging up cleanly (EOF) is
    not an error. *)

val serve_pipe : Engine.t -> in_channel -> out_channel -> int
(** Read request lines until EOF, answering each on the next line
    (blank input lines are skipped); returns the number of requests
    served.  Never sheds: compute runs inline on the caller. *)

type t
(** A listening Unix-domain-socket server. *)

val listen : Engine.t -> path:string -> ?backlog:int -> ?shards:int -> unit -> t
(** Bind and listen on [path], then serve through a reactor of
    [shards] event-loop domains (default: the [Numerics.Pool] jobs
    setting).

    A stale socket file at [path] (left by a crashed server) is
    replaced {e atomically}: the socket is bound to a process-unique
    temp path and renamed over the stale file, so there is no instant
    at which [path] does not resolve.  A {e live} socket at [path]
    (something answers a probe connect) raises [EADDRINUSE] instead of
    being evicted, and a non-socket file raises [ENOTSOCK] — the
    server never unlinks a file it cannot prove abandoned.
    @raise Unix.Unix_error as above, or when the socket cannot be
    bound (e.g. a path longer than the [sun_path] limit).
    @raise Invalid_argument when [shards < 1], before anything is
    bound (no socket file is left at [path]). *)

val reactor_shards : t -> int
(** Event-loop domains serving this socket. *)

val shutdown : t -> unit
(** Stop accepting, close every live connection (clients see EOF after
    buffered responses are flushed), join the reactor domains, and
    unlink the socket path.  Idempotent.  Does {e not} stop the
    engine — callers own its lifecycle. *)
