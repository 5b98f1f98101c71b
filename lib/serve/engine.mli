(** The swap-quote engine: request evaluation behind a sharded result
    cache, computed inline on the calling domain — the pipe loop's, or
    a reactor shard's.

    {b Byte-identity contract.}  Response bodies depend only on the
    canonical request bytes and the engine's configuration (base
    parameters + quote grid + route universe); the cache stores bodies
    and the id is spliced in at assembly.  Cached and socket-served
    responses are therefore byte-identical to a direct {!handle} call
    on an identically configured engine, from any domain.  [Health]
    and [Stats] are the deliberate exceptions: they report live engine
    state / telemetry and are never cached.

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

val handle : ?clock:Telemetry.clock -> t -> string -> string
(** Parse, answer from the cache or compute, and encode — synchronously
    on the calling domain.  Never raises on request evaluation (crashes
    become [internal_error] responses).  [clock] (default
    {!Telemetry.none}) receives the decode / cache-lookup / compute /
    encode stage stamps; the transport that owns the clock finalises it
    at flush. *)

val handle_decoded : ?clock:Telemetry.clock -> t -> Request.t -> string
(** {!handle} for an already-decoded request — the binary codec's
    compute path (its decoder is not line-based, so the reactor decodes
    and hands the typed request straight in).  Same crash absorption,
    caching and byte-identity contract as {!handle}.  A crash also
    triggers {!Telemetry.dump_to_path} with reason ["handler_crash"]. *)

val reject : ?clock:Telemetry.clock -> t -> Request.error -> string
(** The structured response for a request that failed decoding
    (either codec): counts the parse error and encodes
    [code]/[message] with the best-effort id echo. *)

val inject_crash : t -> id:string -> unit
(** Arm a one-shot crash: the next request carrying [id] raises inside
    {!handle_decoded}'s handler and is answered [internal_error], like
    any evaluation crash.  Re-arming replaces the pending id.  Costs
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
