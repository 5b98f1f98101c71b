(* Typed requests for the swap-quote service, with a canonical JSON-line
   codec (schema htlc-serve/v1) and the cache key.

   The canonical form fixes field order and number formatting (via
   Obs.Json, which round-trips floats): two requests asking the same
   question encode to the same bytes no matter how the client ordered
   or spaced its JSON.  [key] is a binary encoding of the typed
   question, equal for two requests exactly when their id-less
   canonical encodings are equal, built without formatting a single
   float.  Decoding is strict: unknown keys are rejected (typos must
   not silently select defaults in a versioned protocol), and value
   errors are separated from syntax errors so the service can answer
   [invalid_params] vs [parse_error]. *)

module J = Obs.Json
module P = Obs.Json_parse

let schema = "htlc-serve/v1"

type sweep_spec = { lo : float; hi : float; n : int }

type body =
  | Cutoffs of { params : Swap.Params.t; p_star : float }
  | Success_rate of { params : Swap.Params.t; p_star : float; q : float }
  | Sweep of { params : Swap.Params.t; q : float; spec : sweep_spec }
  | Quote of { mu : float; sigma : float; spot : float }
  | Route of { from_tok : string; to_tok : string; max_hops : int }
  | Health
  | Stats

type t = { id : string option; body : body }

type error = { err_id : string option; code : string; message : string }

let kind t =
  match t.body with
  | Cutoffs _ -> "cutoffs"
  | Success_rate _ -> "success_rate"
  | Sweep _ -> "sweep"
  | Quote _ -> "quote"
  | Route _ -> "route"
  | Health -> "health"
  | Stats -> "stats"

(* --- canonical encoding ------------------------------------------------- *)

(* Joined with [String.concat] rather than [Printf.sprintf]: the format
   interpreter cost more than the number conversions it wrapped. *)
let cat = String.concat ""

let params_json_raw (p : Swap.Params.t) =
  cat
    [
      "{\"alpha_a\":"; J.num p.alice.alpha; ",\"alpha_b\":"; J.num p.bob.alpha;
      ",\"r_a\":"; J.num p.alice.r; ",\"r_b\":"; J.num p.bob.r; ",\"tau_a\":";
      J.num p.tau_a; ",\"tau_b\":"; J.num p.tau_b; ",\"eps_b\":"; J.num p.eps_b;
      ",\"p0\":"; J.num p.p0; ",\"mu\":"; J.num p.mu; ",\"sigma\":";
      J.num p.sigma; "}";
    ]

(* Requests that omit [params] decode to the physically shared
   [Swap.Params.defaults] (both codecs), and default-params requests
   dominate real traffic, so the canonical bytes of the defaults are
   formatted once: [encode] reuses them, and the fast decoder matches
   them as one literal. *)
let defaults_params_json = params_json_raw Swap.Params.defaults

let params_json p =
  if p == Swap.Params.defaults then defaults_params_json
  else params_json_raw p

(* The canonical fields after [schema] and [id], closed with "}", as
   pieces for [cat]. *)
let body_fields = function
  | Cutoffs { params; p_star } ->
    [ "\"req\":\"cutoffs\",\"params\":"; params_json params; ",\"p_star\":";
      J.num p_star; "}" ]
  | Success_rate { params; p_star; q } ->
    [ "\"req\":\"success_rate\",\"params\":"; params_json params;
      ",\"p_star\":"; J.num p_star; ",\"q\":"; J.num q; "}" ]
  | Sweep { params; q; spec } ->
    [ "\"req\":\"sweep\",\"params\":"; params_json params; ",\"q\":"; J.num q;
      ",\"lo\":"; J.num spec.lo; ",\"hi\":"; J.num spec.hi; ",\"n\":";
      J.int spec.n; "}" ]
  | Quote { mu; sigma; spot } ->
    [ "\"req\":\"quote\",\"mu\":"; J.num mu; ",\"sigma\":"; J.num sigma;
      ",\"spot\":"; J.num spot; "}" ]
  | Route { from_tok; to_tok; max_hops } ->
    [ "\"req\":\"route\",\"from\":"; J.str from_tok; ",\"to\":";
      J.str to_tok; ",\"max_hops\":"; J.int max_hops; "}" ]
  | Health -> [ "\"req\":\"health\"}" ]
  | Stats -> [ "\"req\":\"stats\"}" ]

let schema_prefix = "{\"schema\":" ^ J.str schema ^ ","

let encode t =
  match t.id with
  | None -> cat (schema_prefix :: body_fields t.body)
  | Some id -> cat (schema_prefix :: "\"id\":" :: J.str id :: "," :: body_fields t.body)

(* --- cache key ----------------------------------------------------------- *)

(* [key] runs on every cacheable request, so it formats nothing.  One
   exactly sized [Bytes] holds a kind tag, the kind's own fields, then
   (for the three model kinds) all ten params fields in [params_json]'s
   order: a float as its IEEE-754 bits, an int in 8 bytes, a route
   token as its length in 8 bytes and then its bytes.

   For finite values two keys are equal exactly when the id-less
   canonical encodings are: [Obs.Json.num] prints distinct finite
   floats (0. and -0. too) as distinct text, just as their bits differ,
   and each kind's layout is fixed once the token lengths are read.
   [Cache] hashes the whole key to find its bucket and compares the
   stored hash before the bytes.
   Native byte order: the key never leaves the process. *)

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] put_float b off x = set64 b off (Int64.bits_of_float x)
let[@inline] put_int b off n = set64 b off (Int64.of_int n)

let params_bytes = 80

let put_params b off (p : Swap.Params.t) =
  put_float b off p.alice.alpha;
  put_float b (off + 8) p.bob.alpha;
  put_float b (off + 16) p.alice.r;
  put_float b (off + 24) p.bob.r;
  put_float b (off + 32) p.tau_a;
  put_float b (off + 40) p.tau_b;
  put_float b (off + 48) p.eps_b;
  put_float b (off + 56) p.p0;
  put_float b (off + 64) p.mu;
  put_float b (off + 72) p.sigma

let tagged tag len =
  let b = Bytes.create len in
  Bytes.unsafe_set b 0 (Char.unsafe_chr tag);
  b

let key t =
  let b =
    match t.body with
    | Cutoffs { params; p_star } ->
      let b = tagged 1 (9 + params_bytes) in
      put_float b 1 p_star;
      put_params b 9 params;
      b
    | Success_rate { params; p_star; q } ->
      let b = tagged 2 (17 + params_bytes) in
      put_float b 1 p_star;
      put_float b 9 q;
      put_params b 17 params;
      b
    | Sweep { params; q; spec } ->
      let b = tagged 3 (33 + params_bytes) in
      put_float b 1 q;
      put_float b 9 spec.lo;
      put_float b 17 spec.hi;
      put_int b 25 spec.n;
      put_params b 33 params;
      b
    | Quote { mu; sigma; spot } ->
      let b = tagged 4 25 in
      put_float b 1 mu;
      put_float b 9 sigma;
      put_float b 17 spot;
      b
    | Route { from_tok; to_tok; max_hops } ->
      let nf = String.length from_tok and nt = String.length to_tok in
      let b = tagged 7 (25 + nf + nt) in
      put_int b 1 nf;
      Bytes.unsafe_blit_string from_tok 0 b 9 nf;
      put_int b (9 + nf) nt;
      Bytes.unsafe_blit_string to_tok 0 b (17 + nf) nt;
      put_int b (17 + nf + nt) max_hops;
      b
    | Health -> tagged 5 1
    | Stats -> tagged 6 1
  in
  Bytes.unsafe_to_string b

(* --- decoding ----------------------------------------------------------- *)

exception Invalid of string
(* Internal: value-level rejection (well-formed JSON, bad contents). *)

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let finite_num path v =
  let x = P.as_num path v in
  if not (Float.is_finite x) then invalid "%s: must be finite" path;
  x

let check_keys path allowed fields =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then invalid "%s: unknown key %S" path k)
    fields

let decode_params root =
  match P.member_opt root "params" with
  | None -> Swap.Params.defaults
  | Some pj ->
    let fields = P.as_obj "params" pj in
    check_keys "params"
      [
        "alpha_a"; "alpha_b"; "r_a"; "r_b"; "tau_a"; "tau_b"; "eps_b"; "p0";
        "mu"; "sigma";
      ]
      fields;
    let get name dflt =
      match P.member_opt pj name with
      | None -> dflt
      | Some v -> finite_num (Printf.sprintf "params.%s" name) v
    in
    let d = Swap.Params.defaults in
    let p =
      {
        Swap.Params.alice =
          {
            Swap.Params.alpha = get "alpha_a" d.Swap.Params.alice.alpha;
            r = get "r_a" d.Swap.Params.alice.r;
          };
        bob =
          {
            Swap.Params.alpha = get "alpha_b" d.Swap.Params.bob.alpha;
            r = get "r_b" d.Swap.Params.bob.r;
          };
        tau_a = get "tau_a" d.Swap.Params.tau_a;
        tau_b = get "tau_b" d.Swap.Params.tau_b;
        eps_b = get "eps_b" d.Swap.Params.eps_b;
        p0 = get "p0" d.Swap.Params.p0;
        mu = get "mu" d.Swap.Params.mu;
        sigma = get "sigma" d.Swap.Params.sigma;
      }
    in
    (match Swap.Params.validate p with
    | Ok () -> ()
    | Error msg -> invalid "params: %s" msg);
    p

let require root name =
  match P.member_opt root name with
  | Some v -> v
  | None -> P.bad "missing key %S" name

let positive path x =
  if not (x > 0.) then invalid "%s: must be > 0" path;
  x

let decode_q root =
  match P.member_opt root "q" with
  | None -> 0.
  | Some v ->
    let q = finite_num "q" v in
    if q < 0. then invalid "q: must be >= 0";
    q

let common_keys = [ "schema"; "id"; "req"; "params" ]

let decode_root root =
  (* Best-effort id, so even rejected requests can be correlated by the
     client; the success path still validates it strictly below. *)
  let err_id =
    match P.member_opt root "id" with Some (P.Str s) -> Some s | _ -> None
  in
  match
    let fields = P.as_obj "request" root in
    let sc = P.as_str "schema" (require root "schema") in
    if sc <> schema then P.bad "unknown schema %S (want %S)" sc schema;
    let id =
      match P.member_opt root "id" with
      | None -> None
      | Some v -> Some (P.as_str "id" v)
    in
    let req = P.as_str "req" (require root "req") in
    let body =
      match req with
      | "cutoffs" ->
        check_keys "request" ("p_star" :: common_keys) fields;
        let p_star = positive "p_star" (finite_num "p_star" (require root "p_star")) in
        Cutoffs { params = decode_params root; p_star }
      | "success_rate" ->
        check_keys "request" ("p_star" :: "q" :: common_keys) fields;
        let p_star = positive "p_star" (finite_num "p_star" (require root "p_star")) in
        Success_rate { params = decode_params root; p_star; q = decode_q root }
      | "sweep" ->
        check_keys "request" ("q" :: "lo" :: "hi" :: "n" :: common_keys) fields;
        let lo = positive "lo" (finite_num "lo" (require root "lo")) in
        let hi = finite_num "hi" (require root "hi") in
        if hi <= lo then invalid "hi: must be > lo";
        let n_f = finite_num "n" (require root "n") in
        if (not (Float.is_integer n_f)) || n_f < 2. then
          invalid "n: must be an integer >= 2";
        Sweep
          {
            params = decode_params root;
            q = decode_q root;
            spec = { lo; hi; n = int_of_float n_f };
          }
      | "quote" ->
        check_keys "request" ("mu" :: "sigma" :: "spot" :: common_keys) fields;
        let mu = finite_num "mu" (require root "mu") in
        let sigma = finite_num "sigma" (require root "sigma") in
        let spot = finite_num "spot" (require root "spot") in
        Quote { mu; sigma; spot }
      | "route" ->
        (* No [params]: routing is priced off the server's configured
           token universe, not per-request model parameters. *)
        check_keys "request"
          [ "schema"; "id"; "req"; "from"; "to"; "max_hops" ]
          fields;
        let token name =
          let tok = P.as_str name (require root name) in
          if tok = "" then invalid "%s: must be a non-empty token" name;
          tok
        in
        let from_tok = token "from" in
        let to_tok = token "to" in
        if to_tok = from_tok then invalid "to: must differ from \"from\"";
        let max_hops =
          match P.member_opt root "max_hops" with
          | None -> 4
          | Some v ->
            let h = finite_num "max_hops" v in
            if (not (Float.is_integer h)) || h < 1. || h > 16. then
              invalid "max_hops: must be an integer in [1, 16]";
            int_of_float h
        in
        Route { from_tok; to_tok; max_hops }
      | "health" ->
        (* No params: health reports live engine state, so there is
           nothing to parameterise and nothing to cache. *)
        check_keys "request" [ "schema"; "id"; "req" ] fields;
        Health
      | "stats" ->
        (* Like health: live telemetry, nothing to parameterise or
           cache. *)
        check_keys "request" [ "schema"; "id"; "req" ] fields;
        Stats
      | other -> P.bad "unknown req %S" other
    in
    { id; body }
  with
  | t -> Ok t
  | exception P.Bad msg ->
    Error { err_id; code = "parse_error"; message = msg }
  | exception Invalid msg ->
    Error { err_id; code = "invalid_params"; message = msg }

(* --- canonical fast path ------------------------------------------------- *)

(* Most traffic is machine-generated in exactly the canonical form
   [encode] emits (our client library, the bench corpus, and any b1
   client re-encoded for v1).  A rigid scanner over that one shape
   decodes an order of magnitude faster than the general JSON parser —
   no tree, no assoc walks — and bails to the general path on the
   first byte that deviates, so semantics (including the
   parse_error/invalid_params taxonomy) are unchanged: the fast path
   only ever accepts, never rejects. *)

exception Slow

type scan = { s : string; mutable sp : int }

external get64 : string -> int -> int64 = "%caml_string_get64u"

(* Whether [s] holds [lit] at [pos]: 8 bytes at a time, then the tail
   byte by byte.  A mismatch is a [false], not an exception: the kind
   dispatch below probes up to seven literals per request.  Toplevel
   recursion, not local closures, so a comparison allocates nothing. *)
let rec tail_at s pos lit i n =
  i >= n
  || (String.unsafe_get s (pos + i) = String.unsafe_get lit i
     && tail_at s pos lit (i + 1) n)

let rec words_at s pos lit i n =
  if i + 8 > n then tail_at s pos lit i n
  else
    (get64 s (pos + i) : int64) = get64 lit i && words_at s pos lit (i + 8) n

let looking_at sc lit =
  let n = String.length lit in
  sc.sp + n <= String.length sc.s && words_at sc.s sc.sp lit 0 n

let lit sc lit =
  if not (looking_at sc lit) then raise Slow;
  sc.sp <- sc.sp + String.length lit

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let scan_num sc =
  let start = sc.sp in
  let n = String.length sc.s in
  while sc.sp < n && is_num_char sc.s.[sc.sp] do
    sc.sp <- sc.sp + 1
  done;
  if sc.sp = start then raise Slow;
  match float_of_string_opt (String.sub sc.s start (sc.sp - start)) with
  | Some x when Float.is_finite x -> x
  | Some _ | None -> raise Slow

(* Plain strings only — a backslash (escape) or control byte bails to
   the general parser, which knows the full escape table. *)
let scan_id sc =
  lit sc "\"";
  let start = sc.sp in
  let n = String.length sc.s in
  while
    sc.sp < n
    &&
    match sc.s.[sc.sp] with
    | '"' | '\\' -> false
    | c -> Char.code c >= 0x20
  do
    sc.sp <- sc.sp + 1
  done;
  if sc.sp >= n || sc.s.[sc.sp] <> '"' then raise Slow;
  let id = String.sub sc.s start (sc.sp - start) in
  sc.sp <- sc.sp + 1;
  id

(* Only the canonical defaults bytes take the fast path; any other
   params object (default-valued or not) goes through the general
   parser. *)
let scan_params sc =
  lit sc defaults_params_json;
  Swap.Params.defaults

let scan_positive sc =
  let x = scan_num sc in
  if not (x > 0.) then raise Slow;
  x

let scan_q sc =
  let q = scan_num sc in
  if q < 0. then raise Slow;
  q

let decode_fast line =
  let sc = { s = line; sp = 0 } in
  lit sc "{\"schema\":\"htlc-serve/v1\",";
  let id =
    if looking_at sc "\"id\":" then begin
      sc.sp <- sc.sp + 5;
      let id = scan_id sc in
      lit sc ",";
      Some id
    end
    else None
  in
  lit sc "\"req\":\"";
  let body =
    if looking_at sc "cutoffs\",\"params\":" then begin
      sc.sp <- sc.sp + 18;
      let params = scan_params sc in
      lit sc ",\"p_star\":";
      Cutoffs { params; p_star = scan_positive sc }
    end
    else if looking_at sc "success_rate\",\"params\":" then begin
      sc.sp <- sc.sp + 23;
      let params = scan_params sc in
      lit sc ",\"p_star\":";
      let p_star = scan_positive sc in
      lit sc ",\"q\":";
      Success_rate { params; p_star; q = scan_q sc }
    end
    else if looking_at sc "sweep\",\"params\":" then begin
      sc.sp <- sc.sp + 16;
      let params = scan_params sc in
      lit sc ",\"q\":";
      let q = scan_q sc in
      lit sc ",\"lo\":";
      let lo = scan_positive sc in
      lit sc ",\"hi\":";
      let hi = scan_num sc in
      if hi <= lo then raise Slow;
      lit sc ",\"n\":";
      let n_f = scan_num sc in
      if (not (Float.is_integer n_f)) || n_f < 2. then raise Slow;
      Sweep { params; q; spec = { lo; hi; n = int_of_float n_f } }
    end
    else if looking_at sc "quote\",\"mu\":" then begin
      sc.sp <- sc.sp + 12;
      let mu = scan_num sc in
      lit sc ",\"sigma\":";
      let sigma = scan_num sc in
      lit sc ",\"spot\":";
      Quote { mu; sigma; spot = scan_num sc }
    end
    else if looking_at sc "route\",\"from\":" then begin
      sc.sp <- sc.sp + 14;
      (* Tokens reuse the plain-string scanner: anything escaped bails
         to the general parser. *)
      let from_tok = scan_id sc in
      if from_tok = "" then raise Slow;
      lit sc ",\"to\":";
      let to_tok = scan_id sc in
      if to_tok = "" || to_tok = from_tok then raise Slow;
      lit sc ",\"max_hops\":";
      let h = scan_num sc in
      if (not (Float.is_integer h)) || h < 1. || h > 16. then raise Slow;
      Route { from_tok; to_tok; max_hops = int_of_float h }
    end
    else if looking_at sc "health\"" then begin
      sc.sp <- sc.sp + 7;
      Health
    end
    else if looking_at sc "stats\"" then begin
      sc.sp <- sc.sp + 6;
      Stats
    end
    else raise Slow
  in
  lit sc "}";
  if sc.sp <> String.length line then raise Slow;
  { id; body }

let decode line =
  match decode_fast line with
  | t -> Ok t
  | exception Slow -> (
    match P.parse line with
    | exception P.Bad msg ->
      Error { err_id = None; code = "parse_error"; message = msg }
    | root -> decode_root root)
