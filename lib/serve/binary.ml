(* htlc-serve/b1: compact length-prefixed binary request codec.

   Wire layout (all integers big-endian):

   - A connection opts in by sending the 4-byte magic ["HSB1"] as its
     very first bytes; everything after the magic is frames.  (The JSON
     codec's first byte is never 'H' — canonical requests start with
     '{' — so the reactor can sniff the codec from the first bytes.)
   - Frame: [u32 payload_len][payload], [payload_len <= max_frame].
   - Request payload:
       [u8 kind]      1=cutoffs 2=success_rate 3=sweep 4=quote 5=health
                      6=stats 7=route
       [u8 flags]     bit0 = id present, bit1 = params present
       [u16 id_len][id bytes]                    (if bit0)
       [10 x f64]     alpha_a alpha_b r_a r_b tau_a tau_b eps_b p0 mu
                      sigma                      (if bit1)
       kind fields:
         cutoffs       [f64 p_star]
         success_rate  [f64 p_star][f64 q]
         sweep         [f64 q][f64 lo][f64 hi][u32 n]
         quote         [f64 mu][f64 sigma][f64 spot]
         health        (none)
         stats         (none)
         route         [u16 from_len][from][u16 to_len][to][u8 max_hops]
   - Response frame: [u32 len][body] where [body] is byte-for-byte the
     canonical htlc-serve/v1 JSON response (sans trailing newline);
     [Response.splice] writes it straight into the reactor's write
     buffer.

   Re-using the JSON response bytes is deliberate: responses stay pure
   functions of the canonical request, both codecs share one cache and
   one byte-identity gate, and a binary client can still introspect
   errors.  The saving is on the request path (no JSON parse, floats
   at full precision in 8 bytes) and in framing (no newline scan).

   Decoding applies the same value checks as [Request.decode] so both
   codecs answer identical [invalid_params]/[parse_error] taxonomies.
   Only the {e physically} shared [Swap.Params.defaults] travels as
   "omitted" (flags bit1 clear), and an omitted block decodes back to
   that same record, so re-encoding a decoded payload gives its bytes
   back and no params record is built for it.  A structurally equal
   copy travels in full; [Request.key] compares values, not records,
   so both spellings share one cache entry.

   Encoding refuses what the widths cannot carry (an id or token over
   65535 bytes, a sweep [n] outside u32, [max_hops] outside u8) rather
   than truncate it into a different question. *)

let magic = "HSB1"
let max_frame = 1 lsl 20

(* --- encoding ------------------------------------------------------------ *)

let add_u16 b v =
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

let add_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

let add_f64 b x = Buffer.add_int64_be b (Int64.bits_of_float x)

let kind_tag = function
  | Request.Cutoffs _ -> 1
  | Request.Success_rate _ -> 2
  | Request.Sweep _ -> 3
  | Request.Quote _ -> 4
  | Request.Health -> 5
  | Request.Stats -> 6
  | Request.Route _ -> 7

let add_params b (p : Swap.Params.t) =
  add_f64 b p.alice.alpha;
  add_f64 b p.bob.alpha;
  add_f64 b p.alice.r;
  add_f64 b p.bob.r;
  add_f64 b p.tau_a;
  add_f64 b p.tau_b;
  add_f64 b p.eps_b;
  add_f64 b p.p0;
  add_f64 b p.mu;
  add_f64 b p.sigma

let body_params = function
  | Request.Cutoffs { params; _ }
  | Request.Success_rate { params; _ }
  | Request.Sweep { params; _ } ->
    (* The shared defaults record travels as "omitted" — the decoder
       resurrects the same physical value. *)
    if params == Swap.Params.defaults then None else Some params
  | Request.Quote _ | Request.Route _ | Request.Health | Request.Stats -> None

let encode_payload (req : Request.t) =
  let b = Buffer.create 64 in
  Buffer.add_char b (Char.chr (kind_tag req.body));
  let params = body_params req.body in
  let flags =
    (match req.id with Some _ -> 1 | None -> 0)
    lor match params with Some _ -> 2 | None -> 0
  in
  Buffer.add_char b (Char.chr flags);
  (match req.id with
  | None -> ()
  | Some id ->
    if String.length id > 0xffff then
      invalid_arg "Binary.encode_payload: id longer than 65535 bytes";
    add_u16 b (String.length id);
    Buffer.add_string b id);
  (match params with None -> () | Some p -> add_params b p);
  (match req.body with
  | Request.Cutoffs { p_star; _ } -> add_f64 b p_star
  | Request.Success_rate { p_star; q; _ } ->
    add_f64 b p_star;
    add_f64 b q
  | Request.Sweep { q; spec; _ } ->
    if spec.n < 0 || spec.n > 0xffff_ffff then
      invalid_arg "Binary.encode_payload: sweep n outside the u32 range";
    add_f64 b q;
    add_f64 b spec.lo;
    add_f64 b spec.hi;
    add_u32 b spec.n
  | Request.Quote { mu; sigma; spot } ->
    add_f64 b mu;
    add_f64 b sigma;
    add_f64 b spot
  | Request.Route { from_tok; to_tok; max_hops } ->
    let add_token name tok =
      if String.length tok > 0xffff then
        invalid_arg
          (Printf.sprintf
             "Binary.encode_payload: %s token longer than 65535 bytes" name);
      add_u16 b (String.length tok);
      Buffer.add_string b tok
    in
    add_token "from" from_tok;
    add_token "to" to_tok;
    if max_hops < 0 || max_hops > 0xff then
      invalid_arg "Binary.encode_payload: max_hops outside the u8 range";
    Buffer.add_char b (Char.chr max_hops)
  | Request.Health | Request.Stats -> ());
  Buffer.contents b

let frame payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Binary.frame: payload exceeds max_frame";
  let b = Buffer.create (n + 4) in
  add_u32 b n;
  Buffer.add_string b payload;
  Buffer.contents b

let encode_request req = frame (encode_payload req)

(* --- payload decoding ---------------------------------------------------- *)

exception Reject of string * string
(* (code, message): parse_error for malformed bytes, invalid_params for
   well-formed bytes carrying out-of-domain values — the same split
   [Request.decode] makes. *)

let parse_error fmt =
  Printf.ksprintf (fun m -> raise (Reject ("parse_error", m))) fmt

let invalid fmt =
  Printf.ksprintf (fun m -> raise (Reject ("invalid_params", m))) fmt

type cursor = { s : string; mutable pos : int }

let u8 c =
  if c.pos + 1 > String.length c.s then parse_error "truncated payload";
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u16 c =
  if c.pos + 2 > String.length c.s then parse_error "truncated payload";
  let v = (Char.code c.s.[c.pos] lsl 8) lor Char.code c.s.[c.pos + 1] in
  c.pos <- c.pos + 2;
  v

let u32 c =
  if c.pos + 4 > String.length c.s then parse_error "truncated payload";
  let b i = Char.code c.s.[c.pos + i] in
  (* Read before bumping: [b] captures [c.pos] by reference. *)
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  v

let f64 c =
  if c.pos + 8 > String.length c.s then parse_error "truncated payload";
  let v = Int64.float_of_bits (String.get_int64_be c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let take c n =
  if c.pos + n > String.length c.s then parse_error "truncated payload";
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

let finite path x =
  if not (Float.is_finite x) then invalid "%s: must be finite" path;
  x

let positive path x =
  if not (x > 0.) then invalid "%s: must be > 0" path;
  x

let decode_params c =
  let alpha_a = finite "params.alpha_a" (f64 c) in
  let alpha_b = finite "params.alpha_b" (f64 c) in
  let r_a = finite "params.r_a" (f64 c) in
  let r_b = finite "params.r_b" (f64 c) in
  let tau_a = finite "params.tau_a" (f64 c) in
  let tau_b = finite "params.tau_b" (f64 c) in
  let eps_b = finite "params.eps_b" (f64 c) in
  let p0 = finite "params.p0" (f64 c) in
  let mu = finite "params.mu" (f64 c) in
  let sigma = finite "params.sigma" (f64 c) in
  let p =
    {
      Swap.Params.alice = { Swap.Params.alpha = alpha_a; r = r_a };
      bob = { Swap.Params.alpha = alpha_b; r = r_b };
      tau_a;
      tau_b;
      eps_b;
      p0;
      mu;
      sigma;
    }
  in
  (match Swap.Params.validate p with
  | Ok () -> ()
  | Error msg -> invalid "params: %s" msg);
  p

let decode_q c =
  let q = finite "q" (f64 c) in
  if q < 0. then invalid "q: must be >= 0";
  q

let decode_payload payload : (Request.t, Request.error) result =
  let c = { s = payload; pos = 0 } in
  let err_id = ref None in
  match
    let tag = u8 c in
    let flags = u8 c in
    if flags land lnot 3 <> 0 then parse_error "unknown flags 0x%02x" flags;
    let id = if flags land 1 <> 0 then Some (take c (u16 c)) else None in
    err_id := id;
    let params () =
      if flags land 2 <> 0 then decode_params c else Swap.Params.defaults
    in
    let body =
      match tag with
      | 1 ->
        let params = params () in
        let p_star = positive "p_star" (finite "p_star" (f64 c)) in
        Request.Cutoffs { params; p_star }
      | 2 ->
        let params = params () in
        let p_star = positive "p_star" (finite "p_star" (f64 c)) in
        let q = decode_q c in
        Request.Success_rate { params; p_star; q }
      | 3 ->
        let params = params () in
        let q = decode_q c in
        let lo = positive "lo" (finite "lo" (f64 c)) in
        let hi = finite "hi" (f64 c) in
        if hi <= lo then invalid "hi: must be > lo";
        let n = u32 c in
        if n < 2 then invalid "n: must be an integer >= 2";
        Request.Sweep { params; q; spec = { Request.lo; hi; n } }
      | 4 ->
        if flags land 2 <> 0 then parse_error "quote carries no params block";
        let mu = finite "mu" (f64 c) in
        let sigma = finite "sigma" (f64 c) in
        let spot = finite "spot" (f64 c) in
        Request.Quote { mu; sigma; spot }
      | 5 ->
        if flags land 2 <> 0 then parse_error "health carries no params block";
        Request.Health
      | 6 ->
        if flags land 2 <> 0 then parse_error "stats carries no params block";
        Request.Stats
      | 7 ->
        if flags land 2 <> 0 then parse_error "route carries no params block";
        let from_tok = take c (u16 c) in
        let to_tok = take c (u16 c) in
        if from_tok = "" then invalid "from: must be a non-empty token";
        if to_tok = "" then invalid "to: must be a non-empty token";
        if to_tok = from_tok then invalid "to: must differ from \"from\"";
        let max_hops = u8 c in
        if max_hops < 1 || max_hops > 16 then
          invalid "max_hops: must be an integer in [1, 16]";
        Request.Route { from_tok; to_tok; max_hops }
      | t -> parse_error "unknown kind tag %d" t
    in
    if c.pos <> String.length payload then
      parse_error "trailing bytes after payload";
    { Request.id; body }
  with
  | req -> Ok req
  | exception Reject (code, message) ->
    Error { Request.err_id = !err_id; code; message }

(* --- incremental framing ------------------------------------------------- *)

let decode_frame buf =
  if Iobuf.length buf < 4 then `Need_more
  else begin
    let n = Iobuf.get_u32_be buf 0 in
    if n > max_frame then `Too_large n
    else if Iobuf.length buf < 4 + n then `Need_more
    else begin
      let payload = Iobuf.sub buf 4 n in
      Iobuf.consume buf (4 + n);
      `Frame payload
    end
  end

(* --- blocking channel helpers (clients, tests, bench) -------------------- *)

let input_frame ic =
  match really_input_string ic 4 with
  | exception End_of_file -> None
  | hdr ->
    let b i = Char.code hdr.[i] in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if n > max_frame then
      raise (Failure (Printf.sprintf "Binary.input_frame: oversized frame %d" n));
    (* EOF inside the payload is a torn frame: that is an End_of_file
       the caller must treat as corruption, not a clean close. *)
    Some (really_input_string ic n)
