(* Sweep experiments (fig6/fig8/fig9, eq29) evaluate the cutoffs at the
   same (params, p_star) pairs over and over; the t2 band in particular
   re-runs the region solver each time.  A small domain-safe cache
   memoizes both entry points.  Values are computed outside the lock, so
   concurrent misses may duplicate work but never serialise on the
   root-finder; cached values (floats, immutable interval sets) are safe
   to share across domains.

   Eviction is second-chance (clock): an insertion queue remembers
   arrival order, a hit sets the entry's referenced bit, and a full
   cache evicts the first unreferenced entry — recently-hit keys survive
   a sweep whose working set exceeds the capacity, instead of the whole
   cache being dropped at once.  Hit/miss/eviction counts live in the
   Obs.Metrics registry; [cache_stats] is a thin reader over it. *)

let cache_mutex = Mutex.create ()
let cache_capacity = 512
let m_hits = Obs.Metrics.counter "cutoff.cache.hits"
let m_misses = Obs.Metrics.counter "cutoff.cache.misses"
let m_evictions = Obs.Metrics.counter "cutoff.cache.evictions"

type 'v entry = { value : 'v; mutable referenced : bool }
type ('k, 'v) cache = { tbl : ('k, 'v entry) Hashtbl.t; order : 'k Queue.t }

let make_cache () = { tbl = Hashtbl.create 64; order = Queue.create () }
let t3_cache : (Params.t * float, float) cache = make_cache ()
let band_cache : (Params.t * float, Intervals.t) cache = make_cache ()

(* Called with [cache_mutex] held.  Walks the clock queue: referenced
   entries lose their bit and go around again, the first unreferenced
   entry is evicted.  Keys no longer in the table (stale) are skipped.
   The budget bounds the walk even when every entry is referenced. *)
let evict_one c =
  let budget = ref ((2 * Queue.length c.order) + 1) in
  let evicted = ref false in
  while (not !evicted) && !budget > 0 do
    decr budget;
    match Queue.take_opt c.order with
    | None -> budget := 0
    | Some key -> (
      match Hashtbl.find_opt c.tbl key with
      | None -> () (* stale: already removed by clear *)
      | Some e ->
        if e.referenced then begin
          e.referenced <- false;
          Queue.push key c.order
        end
        else begin
          Hashtbl.remove c.tbl key;
          Obs.Metrics.incr m_evictions;
          evicted := true
        end)
  done

let memo c key compute =
  Mutex.lock cache_mutex;
  match Hashtbl.find_opt c.tbl key with
  | Some e ->
    e.referenced <- true;
    Obs.Metrics.incr m_hits;
    Mutex.unlock cache_mutex;
    e.value
  | None ->
    Obs.Metrics.incr m_misses;
    Mutex.unlock cache_mutex;
    let v = compute () in
    Mutex.lock cache_mutex;
    (* A racing miss may have inserted the key meanwhile; keep the
       existing entry so concurrent readers share one value. *)
    if not (Hashtbl.mem c.tbl key) then begin
      if Hashtbl.length c.tbl >= cache_capacity then evict_one c;
      Hashtbl.replace c.tbl key { value = v; referenced = false };
      Queue.push key c.order
    end;
    Mutex.unlock cache_mutex;
    v

let cache_stats () =
  (Obs.Metrics.counter_value m_hits, Obs.Metrics.counter_value m_misses)

let cache_sizes () =
  Mutex.lock cache_mutex;
  let sizes = (Hashtbl.length t3_cache.tbl, Hashtbl.length band_cache.tbl) in
  Mutex.unlock cache_mutex;
  sizes

let clear_caches () =
  Mutex.lock cache_mutex;
  Hashtbl.reset t3_cache.tbl;
  Queue.clear t3_cache.order;
  Hashtbl.reset band_cache.tbl;
  Queue.clear band_cache.order;
  Obs.Metrics.reset_counter m_hits;
  Obs.Metrics.reset_counter m_misses;
  Obs.Metrics.reset_counter m_evictions;
  Mutex.unlock cache_mutex

let p_t3_low (p : Params.t) ~p_star =
  memo t3_cache (p, p_star) (fun () ->
      let exponent =
        ((p.alice.r -. p.mu) *. p.tau_b)
        -. (p.alice.r *. (p.eps_b +. (2. *. p.tau_a)))
      in
      exp exponent *. p_star /. (1. +. p.alice.alpha))

(* Scan domain for t2 roots: wide enough that the lognormal transition
   mass outside is negligible and the decision is unambiguous.  Scale
   with both the agreed rate and the current price. *)
let scan_domain (p : Params.t) ~p_star =
  let anchor = max p_star p.Params.p0 in
  (anchor *. 1e-4, anchor *. 1e4)

let p_star_domain (p : Params.t) = (p.Params.p0 *. 0.05, p.Params.p0 *. 20.)

(* Where Bob's continuation value beats keeping Token_b (Eq. 23).  Near
   0 and at infinity Bob stops in the standard parameterisation, but
   both cases are decided by probing. *)
let t2_region p ~p_star cont =
  let a, b = scan_domain p ~p_star in
  Intervals.positive_log
    (fun x -> cont ~p_t2:x -. Utility.b_t2_stop ~p_t2:x)
    ~a ~b

let p_star_region p net =
  let a, b = p_star_domain p in
  Intervals.positive_log net ~a ~b

let p_t2_band (p : Params.t) ~p_star =
  memo band_cache (p, p_star) (fun () ->
      t2_region p ~p_star (Utility.b_t2_cont p ~p_star ~k3:(p_t3_low p ~p_star)))

let p_t2_band_endpoints p ~p_star = Intervals.hull (p_t2_band p ~p_star)

let a_t1_net ?quad_nodes (p : Params.t) ~p_star =
  let k3 = p_t3_low p ~p_star in
  let band = p_t2_band p ~p_star in
  Utility.a_t1_cont ?quad_nodes p ~p_star ~k3 ~band
  -. Utility.a_t1_stop ~p_star

let p_star_band ?quad_nodes (p : Params.t) =
  p_star_region p (fun p_star -> a_t1_net ?quad_nodes p ~p_star)

let p_star_band_endpoints ?quad_nodes p =
  Intervals.hull (p_star_band ?quad_nodes p)
