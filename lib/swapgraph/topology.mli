(** Topology-family generators for sweep studies.  Deterministic: the
    structured families are pure functions of the size, and the random
    family draws every bit from [Rng.of_stream ~seed ~stream:0], so a
    (family, size, seed) triple names one graph forever. *)

type family = Cycle | Star | Bridge | Random

val family_to_string : family -> string
val all_families : family list

val cycle : int -> Graph.t
(** [i -> i+1 mod n]; Herlihy's cyclic swap ring.  [n >= 2]. *)

val star : int -> Graph.t
(** Hub-and-spoke: the leader trades out and back with every other
    party; every spoke at depth 1.  [n >= 2]. *)

val bridge : int -> Graph.t
(** Two cycles sharing the leader, which bridges two otherwise
    disjoint trading rings.  [n >= 5]. *)

val random_connected : seed:int -> n:int -> ?extra:int -> unit -> Graph.t
(** A seeded random Hamiltonian cycle (strong connectivity for free)
    plus up to [extra] (default [n]) additional distinct arcs. *)

val generate : family -> n:int -> seed:int -> Graph.t
(** Dispatch; [seed] only matters for {!Random}. *)
