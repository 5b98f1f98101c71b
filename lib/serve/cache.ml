(* Sharded result cache: Request.key -> response body.

   Reads are lock-free: each shard publishes an immutable map snapshot
   through an [Atomic.t], so [find] is one atomic load plus a purely
   functional lookup — reactor shards and other callers never contend
   on the read path, no matter how hot one key is.  Mutation
   (add/evict/clear) serialises on the shard's mutex, builds the next
   snapshot copy-on-write, and publishes it with a single atomic store;
   a concurrent reader sees either the old or the new snapshot, never a
   torn one.

   Eviction stays second-chance (clock), mirroring Swap.Cutoff's memo:
   a hit sets the entry's referenced bit (an [Atomic.t] flip on the
   shared entry — visible to the writer without republishing), and a
   full shard evicts the first unreferenced entry in arrival order, so
   recently-hit keys survive a burst of new traffic instead of the
   shard being dropped wholesale.

   Hits, misses and evictions are per-instance atomics, exact for this
   cache; Engine.stats and the health body read them. *)

module Smap = Map.Make (String)

type entry = { value : string; referenced : bool Atomic.t }

type shard = {
  mutex : Mutex.t;  (* serialises writers; readers never take it *)
  published : entry Smap.t Atomic.t;
  order : string Queue.t;  (* writer-owned clock hand (guarded by mutex) *)
  mutable population : int;  (* |published|, maintained under mutex *)
}

type stats = { hits : int; misses : int; evictions : int }

type t = {
  shards : shard array;
  shard_capacity : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

let create ?(shards = 8) ?(capacity = 1024) () =
  if shards < 1 then invalid_arg "Cache.create: shards must be >= 1";
  if capacity < shards then
    invalid_arg "Cache.create: capacity must be >= shards";
  {
    shards =
      Array.init shards (fun _ ->
          {
            mutex = Mutex.create ();
            published = Atomic.make Smap.empty;
            order = Queue.create ();
            population = 0;
          });
    shard_capacity = capacity / shards;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let shard_of t key =
  t.shards.(Hashtbl.hash key mod Array.length t.shards)

let find t key =
  let s = shard_of t key in
  match Smap.find_opt key (Atomic.get s.published) with
  | Some e ->
    (* Plain store, not CAS: the bit is a monotone hint until the next
       clock sweep clears it, so lost races between hitters are
       harmless. *)
    Atomic.set e.referenced true;
    Atomic.incr t.hits;
    Some e.value
  | None ->
    Atomic.incr t.misses;
    None

(* Called with the shard mutex held: clock sweep until one unreferenced
   entry goes; the budget bounds the walk when everything is hot.
   Returns the map with the victim removed (published by the caller,
   batched with its insert). *)
let evict_one t s map =
  let budget = ref ((2 * Queue.length s.order) + 1) in
  let evicted = ref false in
  let map = ref map in
  while (not !evicted) && !budget > 0 do
    decr budget;
    match Queue.take_opt s.order with
    | None -> budget := 0
    | Some key -> (
      match Smap.find_opt key !map with
      | None -> () (* stale: removed by clear *)
      | Some e ->
        if Atomic.get e.referenced then begin
          Atomic.set e.referenced false;
          Queue.push key s.order
        end
        else begin
          map := Smap.remove key !map;
          s.population <- s.population - 1;
          Atomic.incr t.evictions;
          evicted := true
        end)
  done;
  !map

let add t key value =
  let s = shard_of t key in
  Mutex.lock s.mutex;
  let map = Atomic.get s.published in
  (* A racing domain may have answered the same question first; keep the
     incumbent so concurrent readers share one value. *)
  if not (Smap.mem key map) then begin
    let map = if s.population >= t.shard_capacity then evict_one t s map else map in
    let map = Smap.add key { value; referenced = Atomic.make false } map in
    s.population <- s.population + 1;
    Queue.push key s.order;
    Atomic.set s.published map
  end;
  Mutex.unlock s.mutex

let length t =
  Array.fold_left
    (fun acc s -> acc + Smap.cardinal (Atomic.get s.published))
    0 t.shards

let capacity t = t.shard_capacity * Array.length t.shards

let stats t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
  }
