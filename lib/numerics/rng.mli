(** Deterministic pseudo-random number generation: splitmix64 for seeding
    and xoshiro256++ as the main generator.  Self-contained so that every
    Monte-Carlo experiment in this repository is reproducible bit-for-bit
    across platforms. *)

type t
(** Mutable generator state: the four xoshiro256++ words and the cached
    polar deviate, read and written in place, so a draw allocates
    nothing but its boxed result. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator whose 256-bit state is expanded
    from [seed] (default 0x5eed) with splitmix64. *)

val of_stream : ?seed:int -> stream:int -> unit -> t
(** [of_stream ~seed ~stream ()] is the [stream]-th member of a family of
    statistically independent generators keyed by [seed]: the pair is
    mixed through the splitmix64 finaliser and expanded into xoshiro
    state as {!create} does.  A pure function of [(seed, stream)] — used
    to give every fixed-size Monte-Carlo chunk its own generator so that
    parallel runs are bit-identical for any jobs count. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val uniform : t -> float
(** Uniform float in [[0, 1)] with 53 random bits. *)

val int_below : t -> int -> int
(** Uniform integer in [[0, n)] (unbiased, rejection sampling).
    @raise Invalid_argument if [n <= 0]. *)

val normal : t -> float
(** Standard normal via the Marsaglia polar method. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** General normal deviate. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given [rate]. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Lognormal deviate, [exp (N (mu, sigma^2))]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
