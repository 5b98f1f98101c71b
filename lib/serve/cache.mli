(** Sharded result cache ([Request.key] → response body).  A key is
    equal for two requests exactly when their id-less canonical
    encodings are, so each entry answers one question however it was
    spelled or framed.

    {b Reads are lock-free}: each shard publishes an immutable map
    snapshot through an [Atomic.t], so {!find} is one atomic load plus
    a functional lookup — no reader ever blocks on a writer or on
    another reader.  Mutation serialises on the shard's mutex, builds
    the next snapshot copy-on-write and publishes it atomically, so a
    concurrent reader sees the old or the new snapshot, never a torn
    one.

    Eviction is second-chance (clock), like [Swap.Cutoff]'s memo — a
    hit marks the entry referenced (an atomic bit on the shared entry,
    no republish) and a full shard evicts the first unreferenced entry
    in arrival order.  Capacity is split evenly across shards, so
    [length t <= capacity t] always holds. *)

type t

val create : ?shards:int -> ?capacity:int -> unit -> t
(** Defaults: 8 shards, 1024 entries total.
    @raise Invalid_argument when [shards < 1] or [capacity < shards]. *)

val find : t -> string -> string option
(** Lookup; counts a hit or a miss and refreshes the entry's
    second-chance bit. *)

val add : t -> string -> string -> unit
(** Insert, evicting within the key's shard when full.  A key already
    present keeps its incumbent value (racing computations of the same
    question are identical by construction). *)

val length : t -> int
(** Entries across all shards. *)

val capacity : t -> int
(** Total entry budget ([shard_capacity * shards]). *)

type stats = { hits : int; misses : int; evictions : int }

val stats : t -> stats
(** Exact per-instance counts, held only here: nothing copies them into
    the [Obs.Metrics] registry. *)
