(** Tiny JSON {e emission} helpers used by every [Obs] exporter (and by
    callers embedding snapshots in larger documents).  No parser here:
    validators parse independently so the emitter cannot vouch for
    itself.  [str] and [num] skip [Printf] on their common paths: every
    canonical serve key and response is built from them. *)

val str : string -> string
(** A quoted JSON string literal, backslash-escaped where needed. *)

val str_length : string -> int
(** [String.length (str s)], without building the literal. *)

val blit_str : string -> Bytes.t -> int -> int
(** [blit_str s b off] writes [str s] into [b] at [off] (the caller
    reserved {!str_length}[ s] bytes there) and returns the offset just
    past it. *)

val num : float -> string
(** A JSON number, byte-identical to [Printf.sprintf "%.0f"] for
    integral values below 1e15 in magnitude and to ["%.17g"] (which
    round-trips) for every other finite value; NaN/infinite map to
    [null] (JSON has no encoding for them). *)

val int : int -> string

val g : float -> string
(** [Printf.sprintf "%g" x], byte for byte (the same C conversion,
    without the format interpreter), for plain-text receipts and logs:
    ["nan"], ["inf"] and ["-0"] included, so it is not JSON. *)
