(** Response encoding for [htlc-serve/v1].

    Responses split into an id-independent {e body} (cached per
    canonical request) and one assembler that prepends the schema and
    the caller's [id] — so cache hits return byte-identical responses
    without recomputation.  {!splice} runs the assembler in place in a
    connection's write buffer; {!assemble} is its string form. *)

val ok_body : req:string -> result:string -> string
(** Body of a successful response; [result] is already-serialised JSON. *)

val error_body :
  ?req:string -> code:string -> message:string -> unit -> string
(** Body of an error response ([req] omitted when the request could not
    be parsed far enough to know its kind). *)

val assemble : id:string option -> string -> string
(** [assemble ~id body] — the full one-line response
    [{"schema":"htlc-serve/v1","id":...,<body>].  [None] renders as
    [null]. *)

val splice : Iobuf.t -> framed:bool -> id:string option -> string -> unit
(** Append [assemble ~id body]'s bytes to a write buffer without
    building them as a string: followed by ['\n'] (a JSON line), or
    behind a big-endian u32 length (a [b1] frame, [framed]).
    @raise Invalid_argument when a frame would exceed
    {!Binary.max_frame}; nothing is appended then. *)

val interval_json : (float * float) option -> string
(** [[lo,hi]] or [null]. *)

val float_array_json : float array -> string
