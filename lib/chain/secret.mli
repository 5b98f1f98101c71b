(** Hashlock secrets: a preimage generated by the swap initiator and the
    SHA-256 commitment both HTLCs are locked to (protocol Step 1). *)

type t = private { preimage : string; hash : string }
(** [hash = Sha256.digest preimage]. *)

val generate : Numerics.Rng.t -> t
(** Fresh 32-byte random preimage and its hash. *)

val of_preimage : string -> t

val verify : hash:string -> preimage:string -> bool
(** Constant content check: [Sha256.digest preimage = hash].  Each
    domain remembers its last [(preimage, digest)] pair, so checking the
    same preimage again (as every claim of one swap does) costs a string
    comparison instead of a hash. *)

val hash_hex : t -> string
(** Hex rendering of the commitment, for traces. *)
