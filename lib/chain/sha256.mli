(** SHA-256 (FIPS 180-4), implemented from scratch — the hash function
    that HTLC hashlocks commit to.  Pure OCaml, no external
    dependencies. *)

val digest : string -> string
(** [digest msg] is the 32-byte binary digest of [msg]. *)

val hex_of_bytes : string -> string
(** Helper: lowercase hex encoding of arbitrary bytes. *)
