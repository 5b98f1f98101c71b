(** Flight recorder: a bounded lock-free ring of the last N records.

    Pushes are wait-free (one fetch-and-add and two stores) and the slot
    is a pure function of the global sequence number, so the ring holds
    the last [capacity] pushes regardless of which domains produced
    them; once it wraps, the oldest record is silently overwritten —
    {!dropped} counts how many were lost.  {!dump} recovers records in
    global completion order via per-record sequence numbers.  Dumps are
    not synchronised against writers (a record being pushed during a
    dump may be missed); the intended dump triggers — an absorbed
    handler crash, chaos-gate failure, explicit request — read a
    quiesced or nearly-quiesced ring. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ()] holds roughly [capacity] (default 512, rounded up to
    8 x a power of two) most-recent records.
    @raise Invalid_argument when [capacity < 8]. *)

val capacity : 'a t -> int
(** Actual bound after rounding. *)

val push_copy :
  'a t -> blank:(unit -> 'a) -> copy:('a -> 'a -> unit) -> 'a -> unit
(** [push_copy t ~blank ~copy v] records [v] by overwriting the slot's
    own long-lived record ([blank] creates it on the slot's first use,
    [copy v slot] transfers the fields) instead of retaining [v].
    Once the ring is warm a push allocates and promotes nothing, and
    the caller may recycle [v] immediately.  Pass top-level functions
    for [blank]/[copy] to avoid building closures per push.  Records
    returned by {!dump} are the live slot records — format them before
    pushing resumes. *)

val pushed : 'a t -> int
(** Total records ever pushed (exact). *)

val recorded : 'a t -> int
(** Records currently held ([<= capacity]). *)

val dropped : 'a t -> int
(** Records lost to overwriting ([pushed - recorded]). *)

val dump : 'a t -> (int * 'a) list
(** Held records as [(sequence, record)], ascending sequence — i.e.
    oldest first, the order they completed. *)

val reset : 'a t -> unit
