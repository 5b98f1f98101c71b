(** The swap-quote engine: request evaluation behind a sharded result
    cache, computed inline on the calling domain — the pipe loop's, or
    a reactor shard's.

    {b Byte-identity contract.}  Response bodies depend only on the
    canonical request bytes and the engine's configuration (base
    parameters + quote grid + route universe); the cache stores bodies
    and the id is spliced in at assembly, by one assembler that writes
    either into a connection's write buffer or into a string.  Cached
    and socket-served responses are therefore byte-identical to a
    direct {!handle} call on an identically configured engine, from any
    domain.  [Health] and [Stats] are the deliberate exceptions: they
    report live engine state / telemetry and are never cached.

    {b Crash absorption.}  A request whose evaluation raises is
    answered with a structured [internal_error] response echoing its id
    and kind (counted in {!stats}[.internal_errors]); the caller's loop
    keeps serving.
    {!inject_crash} forces one such crash deterministically. *)

type t

val create :
  ?cache_shards:int ->
  ?cache_capacity:int ->
  ?max_sweep_n:int ->
  ?mus:float array ->
  ?sigmas:float array ->
  ?table:Market.Quote_table.t ->
  ?universe:Swapgraph.Router.t ->
  ?base:Swap.Params.t ->
  unit ->
  t
(** Warm-builds the {!Market.Quote_table} (grid [mus] x [sigmas],
    defaults as in [Quote_table.build], fanned out on the shared
    domain pool).  [table] supplies a prebuilt quote table instead
    (then [mus]/[sigmas] are ignored) — for callers standing up several
    engines that must share one grid, e.g. a served engine and its
    byte-identity reference.  [universe] supplies the swap graph the
    [route] kind searches (default:
    {!Swap.Graphlink.default_universe} over [base]) — like the quote
    grid it is engine configuration, so route answers stay pure
    functions of the canonical request bytes and cache cleanly.
    [max_sweep_n] (default 4096) caps sweep sizes with an
    [invalid_params] answer.
    @raise Invalid_argument when the cache shape is rejected by
    {!Cache.create} ([cache_shards < 1] or
    [cache_capacity < cache_shards]). *)

val answer : ?clock:Telemetry.clock -> t -> Request.t -> string
(** The response body for a decoded request, synchronously on the
    calling domain: stamps the kind and id on [clock], fires an armed
    {!inject_crash}, then answers from the cache or computes and
    inserts ([health] and [stats] are computed every time).  Never
    raises on request evaluation: a crash becomes an [internal_error]
    body and triggers {!Telemetry.dump_to_path} with reason
    ["handler_crash"].  [clock] (default {!Telemetry.none}) receives the
    cache-lookup and compute stage stamps; the caller assembles the
    response with the request's id ({!Response.splice} or
    {!Response.assemble}) and stamps encode. *)

val reject : ?clock:Telemetry.clock -> t -> Request.error -> string
(** The body for a request that failed decoding (either codec): counts
    the parse error and encodes [code]/[message]; its response carries
    the best-effort id echo [err_id]. *)

val handle_decoded : ?clock:Telemetry.clock -> t -> Request.t -> string
(** The string form of the reactor's answer: {!answer}'s body assembled
    with the request's id, byte for byte what a socket connection
    receives (less the line's newline or the frame's length prefix),
    then the encode stamp. *)

val handle : ?clock:Telemetry.clock -> t -> string -> string
(** {!handle_decoded} for a JSON line: decode (stamping decode), then
    {!handle_decoded}, or {!reject}'s body assembled with the recovered
    id.  The pipe loop's path.  Never raises on request evaluation. *)

val inject_crash : t -> id:string -> unit
(** Arm a one-shot crash: the next request carrying [id] raises inside
    {!answer} and is answered [internal_error], like any evaluation
    crash.  Re-arming replaces the pending id.  Costs
    one [Atomic.get] per request. *)

type stats = {
  requests : int;  (** Decoded requests. *)
  parse_errors : int;
  ok : int;  (** Computed [ok] bodies (cache hits not re-counted). *)
  errors : int;  (** Computed error bodies (ditto). *)
  internal_errors : int;
      (** Evaluation crashes answered [internal_error] (includes
          injected ones). *)
  cache : Cache.stats;
}

val stats : t -> stats
(** Exact per-engine counts, held only here: nothing copies them into
    the [Obs.Metrics] registry.  Per-request counts and latencies by
    kind and codec are {!Telemetry}'s. *)
