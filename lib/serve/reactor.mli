(** Event-driven socket transport: a fixed set of shard domains
    multiplexing non-blocking connections with [Unix.select] — request
    pipelining in, response batching out, compute inline through the
    engine's crash-absorbing paths.

    Each connection speaks one of two codecs, negotiated from its first
    bytes: {!Binary.magic} selects length-prefixed [htlc-serve/b1],
    anything else (canonical requests start ['{']) is newline-delimited
    [htlc-serve/v1] JSON.  Responses preserve per-connection request
    order, and bodies are byte-identical across codecs — a [b1]
    response frame carries exactly the JSON line's bytes.

    Each answer is the engine's body ({!Engine.answer}) spliced with
    the request's id straight into the connection's write buffer
    ({!Response.splice}).

    {b Fault behaviour.}  Read/write errors are counted and classified
    under [serve.connection_errors] (sub-counters [.epipe],
    [.econnreset], [.sys_error], [.unix_error], [.handler_crash], plus
    [.protocol] for oversized frames/lines); the connection slot is
    reclaimed and the shard keeps serving.  A peer hanging up cleanly
    (EOF) is not an error: buffered responses are still flushed, and a
    final un-terminated JSON line is still answered (mirroring the old
    [input_line] transport).  Torn trailing binary frames are dropped.

    {b Limits.}  [select] takes only fds below FD_SETSIZE (1024): a
    connection accepted at or above it is closed at once and counted
    under [.fd_limit], and a select that fails anyway is counted under
    [.select] while the shard closes what select refuses and keeps
    serving.  Readiness scans are O(connections) per wake. *)

type t

val start : Engine.t -> listen_fd:Unix.file_descr -> ?shards:int -> unit -> t
(** Spawn the accepter domain (parked in [accept] on [listen_fd],
    dealing connections round-robin) and [shards] event-loop domains
    (default: the [Numerics.Pool] jobs setting).  The caller keeps
    ownership of [listen_fd] — {!stop} shuts it down but does not close
    it.
    @raise Invalid_argument when [shards < 1]. *)

val shards : t -> int

val stop : ?wake:(unit -> unit) -> t -> unit
(** Shut down the listening socket (pops the parked accept), run [wake]
    as a fallback accept-unblocker (e.g. a self-connect — for platforms
    that ignore listening-socket shutdown), then join the accepter,
    wake every shard, close every live connection (clients see EOF) and
    join the shard domains.  Idempotent. *)
