(* The serve engine: request evaluation behind a sharded result cache,
   with crash absorption.

   Every transport computes inline on its own domain through one
   request path, [answer], which returns the response body: the
   reactor decodes each request itself (JSON line or b1 frame), asks
   [answer] (or [reject] for a request that failed decoding) and
   splices the body into the connection's write buffer with
   [Response.splice]; the pipe loop, tests and benches call [handle] /
   [handle_decoded], the string form of that same path through
   [Response.assemble].

   Crash absorption: a request whose evaluation raises is answered with
   a structured [internal_error] body that echoes its kind (the
   assembler adds its id), so every transport keeps its
   one-response-per-request contract and a handler bug costs one
   answer, never a connection or a shard.  [inject_crash] arms exactly
   this failure for the next request that carries a given id — the
   hook the crash tests and the chaos bench drive on a live reactor
   shard.

   Byte-identity contract: computed bodies depend only on the canonical
   request and the engine's configuration (base params + quote grid +
   route universe).  The cache stores each body, with its status, under
   [Request.key], which is equal for two requests exactly when their
   id-less canonical encodings are, and one assembler writes the id and
   the body, so cached and socket responses are byte-identical to a
   direct [handle] call.  [Health] and [Stats] are the deliberate
   exceptions: they report live state, are never cached, and sit
   outside the contract. *)

type stats = {
  requests : int;
  parse_errors : int;
  ok : int;
  errors : int;
  internal_errors : int;
  cache : Cache.stats;
}

(* What the cache stores for a question: the body, and whether it is an
   ok one, found once when the body is made so that a hit sets the
   stage clock's status without reading the body. *)
type cached = { body : string; ok : bool }

type t = {
  table : Market.Quote_table.t;
  universe : Swapgraph.Router.t;
  cache : cached Cache.t;
  max_sweep_n : int;
  (* The id [inject_crash] armed; the first request carrying it takes
     it back out and crashes. *)
  crash_id : string option Atomic.t;
  (* Exact per-engine counts: [stats], the [health] body and the serve
     CLI's exit line read them.  Per-request counts and latencies live
     in the transport's Telemetry clock, not here. *)
  n_requests : int Atomic.t;
  n_parse_errors : int Atomic.t;
  n_ok : int Atomic.t;
  n_errors : int Atomic.t;
  n_internal : int Atomic.t;
}

(* --- evaluation ---------------------------------------------------------- *)

let sr_at params ~p_star ~q =
  if q = 0. then Swap.Success.analytic params ~p_star
  else Swap.Collateral.success_rate (Swap.Collateral.symmetric params ~q) ~p_star

let compute_result t (req : Request.t) =
  match req.body with
  | Cutoffs { params; p_star } ->
    let p_t3_low = Swap.Cutoff.p_t3_low params ~p_star in
    let t2_band = Swap.Cutoff.p_t2_band_endpoints params ~p_star in
    let p_star_band = Swap.Cutoff.p_star_band_endpoints params in
    Ok
      (Printf.sprintf
         "{\"p_t3_low\":%s,\"t2_band\":%s,\"p_star_band\":%s}"
         (Obs.Json.num p_t3_low)
         (Response.interval_json t2_band)
         (Response.interval_json p_star_band))
  | Success_rate { params; p_star; q } ->
    Ok (Printf.sprintf "{\"sr\":%s}" (Obs.Json.num (sr_at params ~p_star ~q)))
  | Sweep { params; q; spec } ->
    if spec.n > t.max_sweep_n then
      Error
        ( "invalid_params",
          Printf.sprintf "n: exceeds this server's sweep limit (%d)"
            t.max_sweep_n )
    else begin
      let p_stars = Numerics.Grid.linspace ~lo:spec.lo ~hi:spec.hi ~n:spec.n in
      let srs = Array.map (fun p_star -> sr_at params ~p_star ~q) p_stars in
      Ok
        (Printf.sprintf "{\"p_stars\":%s,\"srs\":%s}"
           (Response.float_array_json p_stars)
           (Response.float_array_json srs))
    end
  | Quote { mu; sigma; spot } -> (
    match Market.Quote_table.lookup t.table ~mu ~sigma ~spot with
    | Ok { Market.Quote_table.p_star; sr } ->
      Ok
        (Printf.sprintf "{\"p_star\":%s,\"sr\":%s}" (Obs.Json.num p_star)
           (Obs.Json.num sr))
    | Error reason ->
      Error
        ( Market.Quote_table.reason_to_string reason,
          "no quote at these calibrated parameters" ))
  | Route { from_tok; to_tok; max_hops } -> (
    match Swapgraph.Router.best t.universe ~from_tok ~to_tok ~max_hops with
    | Ok { Swapgraph.Router.hops; sr; rate } ->
      Ok
        (Printf.sprintf "{\"path\":[%s],\"hops\":%s,\"sr\":%s,\"rate\":%s}"
           (String.concat "," (List.map Obs.Json.str hops))
           (Obs.Json.int (List.length hops - 1))
           (Obs.Json.num sr) (Obs.Json.num rate))
    | Error (Swapgraph.Router.Unknown_token tok) ->
      Error
        ( "invalid_params",
          Printf.sprintf "unknown token %S in this server's swap graph" tok )
    | Error Swapgraph.Router.No_route ->
      Error
        ( "no_route",
          Printf.sprintf "no path from %S to %S within %d hops" from_tok
            to_tok max_hops ))
  | Health ->
    let cs = Cache.stats t.cache in
    Ok
      (Printf.sprintf
         "{\"internal_errors\":%d,\"cache\":{\"entries\":%d,\"capacity\":%d,\"hits\":%d,\"misses\":%d,\"evictions\":%d}}"
         (Atomic.get t.n_internal) (Cache.length t.cache) (Cache.capacity t.cache)
         cs.Cache.hits cs.Cache.misses cs.Cache.evictions)
  | Stats ->
    (* Live telemetry: like Health, never cached. *)
    Ok (Telemetry.stats_json ())

let computed t clock (req : Request.t) kind =
  Obs.Trace.with_span "serve.compute" (fun span ->
      Obs.Trace.annotate span "req" kind;
      Telemetry.stamp_compute_start clock;
      match compute_result t req with
      | Ok result ->
        Telemetry.stamp_compute_stop clock;
        Atomic.incr t.n_ok;
        { body = Response.ok_body ~req:kind ~result; ok = true }
      | Error (code, message) ->
        Telemetry.stamp_compute_stop clock;
        Telemetry.set_status clock "error";
        Atomic.incr t.n_errors;
        { body = Response.error_body ~req:kind ~code ~message (); ok = false })

(* The [inject_crash] trigger: one [Atomic.get] per request while
   nothing is armed.  The compare-and-set disarms before raising, so
   the crash fires once even when several shards see the id at once. *)
let crash_if_armed t (req : Request.t) =
  match Atomic.get t.crash_id with
  | None -> ()
  | Some armed as cell -> (
    match req.id with
    | Some id
      when String.equal id armed && Atomic.compare_and_set t.crash_id cell None
      ->
      failwith "injected handler crash"
    | _ -> ())

(* The body for a parsed request: live kinds computed, the rest from
   the cache or computed and inserted. *)
let lookup clock t (req : Request.t) =
  let kind = Request.kind req in
  Telemetry.set_kind clock kind;
  Telemetry.set_id clock req.id;
  Atomic.incr t.n_requests;
  crash_if_armed t req;
  match req.body with
  | Health | Stats ->
    (* Live state: never cached, recomputed on every ask. *)
    (computed t clock req kind).body
  | _ -> (
    let key = Request.key req in
    match Cache.find t.cache key with
    | Some a ->
      if Telemetry.is_real clock then begin
        Telemetry.stamp_cache clock ~hit:true;
        if not a.ok then Telemetry.set_status clock "error"
      end;
      a.body
    | None ->
      Telemetry.stamp_cache clock ~hit:false;
      let a = computed t clock req kind in
      Cache.add t.cache key a;
      a.body)

(* Absorb a crash into a structured body so every transport keeps its
   one-response-per-request contract: nothing is written until the body
   is in hand. *)
let answer ?(clock = Telemetry.none) t (req : Request.t) =
  try lookup clock t req
  with exn ->
    Atomic.incr t.n_internal;
    Telemetry.set_status clock "error";
    (* Flight-recorder crash trigger: the last N completed requests at
       the moment a handler crashed, written to the configured dump
       path (no-op when none is set). *)
    Telemetry.dump_to_path ~reason:"handler_crash";
    Response.error_body ~req:(Request.kind req) ~code:"internal_error"
      ~message:
        (Printf.sprintf "request handler crashed: %s" (Printexc.to_string exn))
      ()

let reject ?(clock = Telemetry.none) t (err : Request.error) =
  if Telemetry.is_real clock then begin
    Telemetry.set_kind clock "error";
    Telemetry.set_id clock err.err_id;
    Telemetry.set_status clock "error"
  end;
  Atomic.incr t.n_parse_errors;
  Response.error_body ~code:err.code ~message:err.message ()

(* The string forms of what the reactor splices into its write
   buffers. *)
let handle_decoded ?(clock = Telemetry.none) t (req : Request.t) =
  let resp = Response.assemble ~id:req.id (answer ~clock t req) in
  Telemetry.stamp_encode clock;
  resp

let handle ?(clock = Telemetry.none) t line =
  match Request.decode line with
  | Error err ->
    Telemetry.stamp_decode clock;
    let resp = Response.assemble ~id:err.err_id (reject ~clock t err) in
    Telemetry.stamp_encode clock;
    resp
  | Ok req ->
    Telemetry.stamp_decode clock;
    handle_decoded ~clock t req

let inject_crash t ~id = Atomic.set t.crash_id (Some id)

(* --- lifecycle ----------------------------------------------------------- *)

let create ?(cache_shards = 8) ?(cache_capacity = 1024) ?(max_sweep_n = 4096)
    ?mus ?sigmas ?table ?universe ?(base = Swap.Params.defaults) () =
  {
    (* Warm build: one full solve per grid node, fanned out on the
       shared pool, so the first quote request is already
       microseconds.  A caller holding a prebuilt table (bench legs
       comparing engines on identical grids) passes it in instead. *)
    table =
      (match table with
      | Some tb -> tb
      | None -> Market.Quote_table.build ?mus ?sigmas base);
    (* The route universe is engine configuration like the quote
       grid: built once (a handful of 2-party solves), then every
       route answer is a pure function of (universe, query). *)
    universe =
      (match universe with
      | Some u -> u
      | None -> Swap.Graphlink.default_universe ~base ());
    cache = Cache.create ~shards:cache_shards ~capacity:cache_capacity ();
    max_sweep_n;
    crash_id = Atomic.make None;
    n_requests = Atomic.make 0;
    n_parse_errors = Atomic.make 0;
    n_ok = Atomic.make 0;
    n_errors = Atomic.make 0;
    n_internal = Atomic.make 0;
  }

let stats t =
  {
    requests = Atomic.get t.n_requests;
    parse_errors = Atomic.get t.n_parse_errors;
    ok = Atomic.get t.n_ok;
    errors = Atomic.get t.n_errors;
    internal_errors = Atomic.get t.n_internal;
    cache = Cache.stats t.cache;
  }
