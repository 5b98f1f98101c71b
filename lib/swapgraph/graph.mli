(** Swap digraphs (Herlihy, PODC 2018): parties as vertices, HTLC
    transfers as arcs, one leader holding the hash preimage.  A graph
    is well formed when it is strongly connected and every party both
    gives and receives, so a revealed secret can propagate claims to
    every arc.

    Arcs are held in a canonical order (sorted by [(src, dst)]); every
    consumer iterates that order, which makes downstream results —
    timelocks, executions, sweeps — reproducible byte-for-byte. *)

type arc = { src : int; dst : int }

type t

val make : ?leader:int -> n:int -> (int * int) list -> (t, string) result
(** [make ~n pairs] builds the graph on parties [0..n-1] with one arc
    per [(src, dst)] pair (default [leader = 0]).  Rejects self-loops,
    duplicates, out-of-range endpoints, parties that do not both give
    and receive, and graphs that are not strongly connected. *)

val make_exn : ?leader:int -> n:int -> (int * int) list -> t
(** @raise Invalid_argument where {!make} returns [Error]. *)

val n : t -> int
val leader : t -> int

val arcs : t -> arc array
(** Canonical arc order; indices into this array identify arcs
    everywhere (timelocks, chains, contracts). *)

val depth : t -> int -> int
(** BFS distance from the leader along forward arcs. *)

val depths : t -> int array
val max_depth : t -> int

val out_arcs : t -> int -> int list
(** Ascending arc indices leaving the vertex (never empty). *)

val in_arcs : t -> int -> int list
(** Ascending arc indices entering the vertex (never empty). *)

val decision_order : t -> int array
(** All vertices sorted by (leader distance, index) — the order in
    which parties act during the lock phase; the leader is first. *)
