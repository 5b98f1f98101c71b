(* Sharded result cache: Request.key -> whatever the caller stores (the
   engine keeps each answer's body and its status).

   Reads are lock-free: each shard is a fixed array of buckets, each an
   immutable entry list published through an [Atomic.t].  [find] is one
   [Hashtbl.hash] of the key, one bucket load, an int compare on each
   entry's stored hash and one [String.equal] on the entry that matches
   — reactor shards and other callers never contend on the read path,
   no matter how hot one key is.  A bucket array is a power of two at
   least twice the shard's capacity, so it never resizes and a bucket
   holds about one entry.  Mutation (add/evict) serialises on the
   shard's mutex and replaces a whole bucket with a single atomic
   store; a concurrent reader sees either the old or the new list,
   never a torn one.

   Eviction stays second-chance (clock), mirroring Swap.Cutoff's memo:
   a hit sets the entry's referenced bit (an [Atomic.t] flip on the
   shared entry, no republish), and a full shard evicts the first
   unreferenced entry in arrival order, so recently-hit keys survive a
   burst of new traffic instead of the shard being dropped wholesale.

   Hits, misses and evictions are per-instance atomics, exact for this
   cache; Engine.stats and the health body read them. *)

type 'a entry = {
  key : string;
  hash : int;  (* [Hashtbl.hash key] *)
  found : 'a option;  (* [Some value], built once so a hit allocates nothing *)
  referenced : bool Atomic.t;
}

type 'a shard = {
  mutex : Mutex.t;  (* serialises writers; readers never take it *)
  buckets : 'a entry list Atomic.t array;
  order : 'a entry Queue.t;  (* writer-owned clock hand (guarded by mutex) *)
  population : int Atomic.t;  (* entries in [buckets]; written under mutex *)
}

type stats = { hits : int; misses : int; evictions : int }

type 'a t = {
  shards : 'a shard array;
  shard_capacity : int;
  mask : int;  (* buckets per shard - 1 *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

let create ?(shards = 8) ?(capacity = 1024) () =
  if shards < 1 then invalid_arg "Cache.create: shards must be >= 1";
  if capacity < shards then
    invalid_arg "Cache.create: capacity must be >= shards";
  let shard_capacity = capacity / shards in
  let n_buckets = ref 1 in
  while !n_buckets < 2 * shard_capacity do
    n_buckets := 2 * !n_buckets
  done;
  {
    shards =
      Array.init shards (fun _ ->
          {
            mutex = Mutex.create ();
            buckets = Array.init !n_buckets (fun _ -> Atomic.make []);
            order = Queue.create ();
            population = Atomic.make 0;
          });
    shard_capacity;
    mask = !n_buckets - 1;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

(* The shard takes the hash modulo the shard count and the bucket the
   quotient's low bits, so a power-of-two shard count does not leave
   most of each shard's buckets empty. *)
let shard_of t h = t.shards.(h mod Array.length t.shards)
let bucket_of t h = (h / Array.length t.shards) land t.mask

let rec find_in t key h = function
  | [] ->
    Atomic.incr t.misses;
    None
  | e :: rest ->
    if e.hash = h && String.equal e.key key then begin
      (* Plain store, not CAS: the bit is a monotone hint until the next
         clock sweep clears it, so lost races between hitters are
         harmless. *)
      Atomic.set e.referenced true;
      Atomic.incr t.hits;
      e.found
    end
    else find_in t key h rest

let find t key =
  let h = Hashtbl.hash key in
  find_in t key h (Atomic.get (shard_of t h).buckets.(bucket_of t h))

let mem_bucket key h entries =
  List.exists (fun e -> e.hash = h && String.equal e.key key) entries

(* Called with the shard mutex held: clock sweep until one unreferenced
   entry goes; the budget bounds the walk when everything is hot. *)
let evict_one t s =
  let budget = ref ((2 * Queue.length s.order) + 1) in
  let evicted = ref false in
  while (not !evicted) && !budget > 0 do
    decr budget;
    match Queue.take_opt s.order with
    | None -> budget := 0
    | Some e ->
      if Atomic.get e.referenced then begin
        Atomic.set e.referenced false;
        Queue.push e s.order
      end
      else begin
        let cell = s.buckets.(bucket_of t e.hash) in
        Atomic.set cell (List.filter (fun x -> x != e) (Atomic.get cell));
        Atomic.decr s.population;
        Atomic.incr t.evictions;
        evicted := true
      end
  done

let add t key value =
  let h = Hashtbl.hash key in
  let s = shard_of t h in
  let cell = s.buckets.(bucket_of t h) in
  Mutex.lock s.mutex;
  (* A racing domain may have answered the same question first; keep the
     incumbent so concurrent readers share one value. *)
  if not (mem_bucket key h (Atomic.get cell)) then begin
    if Atomic.get s.population >= t.shard_capacity then evict_one t s;
    let e =
      { key; hash = h; found = Some value; referenced = Atomic.make false }
    in
    (* Read the bucket again: the eviction may have rewritten it. *)
    Atomic.set cell (e :: Atomic.get cell);
    Atomic.incr s.population;
    Queue.push e s.order
  end;
  Mutex.unlock s.mutex

let length t =
  Array.fold_left (fun acc s -> acc + Atomic.get s.population) 0 t.shards

let capacity t = t.shard_capacity * Array.length t.shards

let stats t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
  }
