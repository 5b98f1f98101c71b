(** Sets of disjoint open intervals of positive reals — the shape of the
    continuation regions (the paper's bands [(P_low, P_high)] and the
    1-or-3-root sets [𝔓] of Section IV). *)

type interval = { lo : float; hi : float }
(** Open interval; [hi] may be [infinity]. *)

type t
(** Disjoint intervals in increasing order. *)

val empty : t
val of_list : interval list -> t
(** Sorts, validates disjointness and [lo < hi] for each.
    @raise Invalid_argument on overlap or a degenerate interval. *)

val intervals : t -> interval list
val is_empty : t -> bool
val contains : t -> float -> bool

val of_sign_changes :
  f:(float -> float) -> roots:float list -> domain_lo:float ->
  domain_hi:float -> t
(** Reconstructs [{ x : f x > 0 }] within [(domain_lo, domain_hi)] from
    the sorted root list: evaluates [f] at midpoints between consecutive
    boundaries (geometric midpoints, for price domains) and keeps the
    positive cells.  [domain_hi] may be [infinity] (the last cell is
    probed at twice the last root). *)

val positive_log : (float -> float) -> a:float -> b:float -> t
(** [{ x > 0 : f x > 0 }], with every boundary inside [[a, b]] found by
    {!Numerics.Root.roots_log} and the cells probed as in
    {!of_sign_changes} (so the first and last reach [0] and [infinity]).
    This is how every continuation region is computed: the site supplies
    its net utility and its scan domain. *)

val hull : t -> (float * float) option
(** [(lo, hi)] from the first interval's [lo] to the last one's [hi];
    [None] when empty. *)

val intersect : t -> t -> t
val union : t -> t -> t

val to_string : t -> string
(** e.g. ["(0.31, 2.54) u (3.1, inf)"]. *)
