(** Sharded result cache ([Request.key] → a value the caller chooses;
    the engine stores each answer's body with its status).  A key is
    equal for two requests exactly when their id-less canonical
    encodings are, so each entry answers one question however it was
    spelled or framed.

    {b Reads are lock-free}: each shard is a fixed array of buckets, a
    power of two at least twice the shard's capacity, and each bucket
    is an immutable entry list published through an [Atomic.t].
    {!find} is one [Hashtbl.hash] of the key, one bucket load, an int
    compare on each entry's stored hash and one [String.equal] — no
    reader ever blocks on a writer or on another reader, and a hit
    allocates nothing.  Mutation serialises on the shard's mutex and
    replaces a whole bucket atomically, so a concurrent reader sees the
    old or the new list, never a torn one.

    Eviction is second-chance (clock), like [Swap.Cutoff]'s memo — a
    hit marks the entry referenced (an atomic bit on the shared entry,
    no republish) and a full shard evicts the first unreferenced entry
    in arrival order.  Capacity is split evenly across shards, so
    [length t <= capacity t] always holds. *)

type 'a t

val create : ?shards:int -> ?capacity:int -> unit -> 'a t
(** Defaults: 8 shards, 1024 entries total.
    @raise Invalid_argument when [shards < 1] or [capacity < shards]. *)

val find : 'a t -> string -> 'a option
(** Lookup; counts a hit or a miss and refreshes the entry's
    second-chance bit. *)

val add : 'a t -> string -> 'a -> unit
(** Insert, evicting within the key's shard when full.  A key already
    present keeps its incumbent value (racing computations of the same
    question are identical by construction). *)

val length : 'a t -> int
(** Entries across all shards. *)

val capacity : 'a t -> int
(** Total entry budget ([shard_capacity * shards]). *)

type stats = { hits : int; misses : int; evictions : int }

val stats : 'a t -> stats
(** Exact per-instance counts, held only here: nothing copies them into
    the [Obs.Metrics] registry. *)
