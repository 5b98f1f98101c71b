(** Typed requests for the swap-quote service and their canonical
    JSON-line codec (schema [htlc-serve/v1]).

    Canonical form = fixed field order + round-tripping float format,
    so one question has one encoding whatever the client's field order
    or spacing; {!key} is the cache key for that question.  Decoding is
    strict: unknown keys and out-of-range values are rejected with
    distinct [parse_error] / [invalid_params] codes. *)

val schema : string
(** ["htlc-serve/v1"]. *)

type sweep_spec = { lo : float; hi : float; n : int }

type body =
  | Cutoffs of { params : Swap.Params.t; p_star : float }
      (** Eq. 18 / 24 / 29 thresholds. *)
  | Success_rate of { params : Swap.Params.t; p_star : float; q : float }
      (** Eq. 31 (or Eq. 40 when [q > 0]). *)
  | Sweep of { params : Swap.Params.t; q : float; spec : sweep_spec }
      (** SR across [n] rates in [lo, hi]. *)
  | Quote of { mu : float; sigma : float; spot : float }
      (** SR-optimal rate off the warm {!Market.Quote_table}. *)
  | Route of { from_tok : string; to_tok : string; max_hops : int }
      (** Best multi-hop path between two tokens over the server's
          configured swap graph (maximal product of per-leg success
          rates, at most [max_hops] legs).  Cached like the other
          computed kinds; unknown tokens answer [invalid_params]. *)
  | Health
      (** Live engine state: the internal-error count and cache
          counters.  Never cached (the answer is a snapshot, not
          a pure function of the request), so it sits outside the
          byte-identity contract. *)
  | Stats
      (** Live serve telemetry: per-kind/per-codec latency quantiles,
          stage breakdowns, windowed req/s, sampler and flight-recorder
          status.  Like [Health], never cached and outside the
          byte-identity contract. *)

type t = { id : string option; body : body }

type error = { err_id : string option; code : string; message : string }
(** [code] is ["parse_error"] (malformed/unversioned JSON) or
    ["invalid_params"] (well-formed but out-of-range values).
    [err_id] is the request's id when it could still be recovered, so
    rejections stay client-correlatable. *)

val kind : t -> string
(** ["cutoffs" | "success_rate" | "sweep" | "quote" | "route" |
    "health" | "stats"] — the wire [req] tag, echoed in responses and
    used as a metric label. *)

val decode : string -> (t, error) result
(** Parse one request line.  Requires [schema]; [id] is optional;
    [params] fields default to {!Swap.Params.defaults} field-wise and
    the assembled record must pass {!Swap.Params.validate}. *)

val encode : t -> string
(** Canonical one-line JSON (includes [id] when present).
    [decode (encode t) = Ok t]. *)

val key : t -> string
(** The cache key: a binary encoding of the question without its [id]
    (kind tag, floats as IEEE-754 bits, ints in 8 bytes, all ten params
    fields, length-prefixed route tokens), built without formatting a
    float.  For requests with finite values (all that either codec
    decodes), [key a = key b] exactly when
    [encode {a with id = None} = encode {b with id = None}].  The bytes
    are not a wire format and are in native byte order. *)

val params_json : Swap.Params.t -> string
(** The canonical [params] object on its own (reused by
    [swap_cli quote --json]). *)
