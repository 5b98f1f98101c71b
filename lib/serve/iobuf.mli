(** Growable byte buffer with a consumption cursor — the reactor's
    per-connection read/write staging area.

    Producers append at the tail ({!extend}, {!refill}); consumers
    take from the head ({!consume}, {!write}).  Amortised O(1) appends
    (slide-offset + compact-on-demand + geometric growth).  {b Not}
    domain-safe: a buffer is owned by one reactor shard domain. *)

type t

val create : ?initial:int -> unit -> t
(** Fresh empty buffer ([initial] storage bytes, default 4096).
    @raise Invalid_argument when [initial < 1]. *)

val length : t -> int
(** Bytes currently buffered (unconsumed). *)

val is_empty : t -> bool

val extend : t -> int -> int
(** [extend t n] appends [n] unwritten bytes at the tail and returns
    where they start in {!storage}: the caller fills
    [storage t] at [[at, at + n)] before any other call on [t].  Lets a
    producer write its bytes in place instead of building a string to
    copy in.
    @raise Invalid_argument when [n < 0]. *)

val storage : t -> Bytes.t
(** The backing store {!extend} offsets index; valid until the next
    call that adds to [t]. *)

val get : t -> int -> char
(** Byte at logical position [i] ([0] = next byte to consume).
    @raise Invalid_argument out of bounds. *)

val get_u32_be : t -> int -> int
(** Big-endian u32 at logical position [pos], as a non-negative [int].
    @raise Invalid_argument when fewer than 4 bytes are available. *)

val index : t -> char -> int
(** Logical position of the first occurrence of a byte among the
    buffered ones, or [-1]. *)

val sub : t -> int -> int -> string
(** Copy of [n] bytes from logical position [pos]; does not consume.
    @raise Invalid_argument out of bounds. *)

val consume : t -> int -> unit
(** Drop [n] bytes from the head.
    @raise Invalid_argument when [n] exceeds {!length}. *)

val refill : t -> Unix.file_descr -> max:int -> int
(** One [Unix.read] of up to [max] bytes appended at the tail; returns
    the byte count (0 = EOF).  Raises [Unix.Unix_error] as [read] does
    (including [EAGAIN] on a drained non-blocking fd). *)

val write : t -> Unix.file_descr -> int
(** One [Unix.single_write] from the head; consumes and returns what
    was written (0 when empty).  Raises [Unix.Unix_error] as [write]
    does — on [EAGAIN] nothing is consumed. *)
