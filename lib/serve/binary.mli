(** [htlc-serve/b1]: compact length-prefixed binary request codec.

    A connection opts in by sending {!magic} as its first 4 bytes; after
    that, requests travel as [u32-length-prefixed] binary payloads
    (kind tag, flags, optional id, optional params as raw IEEE-754
    doubles, kind fields) and every response frame carries the {e same
    canonical htlc-serve/v1 JSON body} the JSON codec would emit, minus
    the trailing newline.  Responses therefore stay pure in the
    canonical request bytes: both codecs share one cache and one
    byte-identity gate.

    Decoding applies the same value checks as [Request.decode], so the
    two codecs answer identical [parse_error] / [invalid_params]
    taxonomies.  Only the physically shared [Swap.Params.defaults]
    travels without a params block, and a payload without one decodes
    back to that record. *)

val magic : string
(** ["HSB1"] — never a prefix of canonical JSON, which starts ['{']. *)

val max_frame : int
(** Maximum payload bytes per frame (1 MiB); larger headers are a
    protocol violation and the peer should drop the connection. *)

val encode_payload : Request.t -> string
(** Unframed request payload (golden-vector tests pin these bytes).
    @raise Invalid_argument when the id or a route token exceeds 65535
    bytes, a sweep's [n] does not fit in 32 bits or a route's
    [max_hops] in 8: truncating either would ask another question. *)

val encode_request : Request.t -> string
(** [frame (encode_payload req)] — what a client writes per request
    (after the one-time {!magic}). *)

val decode_payload : string -> (Request.t, Request.error) result
(** Strict decode of one request payload.  [Error] mirrors the JSON
    taxonomy: malformed bytes (truncation, unknown tag/flags, trailing
    garbage) are [parse_error]; well-formed bytes with out-of-domain
    values are [invalid_params].  A decodable id is echoed in
    [err_id] either way. *)

val decode_frame : Iobuf.t -> [ `Frame of string | `Need_more | `Too_large of int ]
(** Incremental framing over a read buffer: [`Frame payload] consumes
    one whole frame; [`Need_more] leaves the buffer untouched;
    [`Too_large n] reports a header exceeding {!max_frame} (drop the
    connection — resynchronisation is impossible). *)

val input_frame : in_channel -> string option
(** Blocking read of one frame ([None] on EOF at a frame boundary).
    @raise End_of_file on EOF inside a frame (torn frame).
    @raise Failure on an oversized header. *)
