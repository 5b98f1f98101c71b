(* The serve subsystem: codec round-trips and golden encodings, the
   error taxonomy, cache hit/eviction semantics, the jobs-invariance
   byte-identity guard, crash absorption on a live reactor shard, and
   live socket-transport round trips. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A 2x2 quote grid keeps engine construction cheap; every engine in
   this file must use the same grid or byte-identity comparisons would
   be meaningless. *)
let mus = [| -0.01; 0.01 |]
let sigmas = [| 0.05; 0.1 |]
let make_engine () = Serve.Engine.create ~mus ~sigmas ()

(* --- codec --------------------------------------------------------------- *)

let test_codec_golden () =
  (* The canonical bytes are the wire format: pin them exactly so
     neither field order nor float formatting can drift. *)
  (* 0.125 is exactly representable, so the %.17g round-trip format
     prints it short and the golden stays readable. *)
  let req =
    {
      Serve.Request.id = Some "r1";
      body = Serve.Request.Quote { mu = 0.; sigma = 0.125; spot = 2. };
    }
  in
  check_str "canonical quote encoding"
    "{\"schema\":\"htlc-serve/v1\",\"id\":\"r1\",\"req\":\"quote\",\"mu\":0,\"sigma\":0.125,\"spot\":2}"
    (Serve.Request.encode req);
  (* The cache key is binary; what it must agree with is the id-less
     canonical encoding, pinned here, and it must not see the id. *)
  check_str "id-less quote encoding"
    "{\"schema\":\"htlc-serve/v1\",\"req\":\"quote\",\"mu\":0,\"sigma\":0.125,\"spot\":2}"
    (Serve.Request.encode { req with id = None });
  check_str "quote key ignores the id"
    (Serve.Request.key { req with id = None })
    (Serve.Request.key { req with id = Some "other" });
  let sweep =
    {
      Serve.Request.id = None;
      body =
        Serve.Request.Sweep
          {
            params = Swap.Params.defaults;
            q = 0.25;
            spec = { lo = 1.6; hi = 2.4; n = 5 };
          };
    }
  in
  check_bool "sweep encoding carries params and spec" true
    (contains (Serve.Request.encode sweep)
       "\"req\":\"sweep\",\"params\":{\"alpha_a\":");
  let route =
    {
      Serve.Request.id = Some "rt";
      body =
        Serve.Request.Route
          { from_tok = "BTC"; to_tok = "USDC"; max_hops = 4 };
    }
  in
  check_str "canonical route encoding"
    "{\"schema\":\"htlc-serve/v1\",\"id\":\"rt\",\"req\":\"route\",\"from\":\"BTC\",\"to\":\"USDC\",\"max_hops\":4}"
    (Serve.Request.encode route);
  check_str "id-less route encoding"
    "{\"schema\":\"htlc-serve/v1\",\"req\":\"route\",\"from\":\"BTC\",\"to\":\"USDC\",\"max_hops\":4}"
    (Serve.Request.encode { route with id = None });
  check_str "route key ignores the id"
    (Serve.Request.key { route with id = None })
    (Serve.Request.key route)

let roundtrip line =
  match Serve.Request.decode line with
  | Ok req -> Serve.Request.encode req
  | Error e -> Alcotest.failf "decode %S failed: %s" line e.message

let test_codec_roundtrip () =
  let bodies =
    [
      Serve.Request.Cutoffs { params = Swap.Params.defaults; p_star = 2. };
      Serve.Request.Success_rate
        { params = Swap.Params.defaults; p_star = 2.; q = 0.25 };
      Serve.Request.Sweep
        {
          params = Swap.Params.defaults;
          q = 0.;
          spec = { lo = 1.6; hi = 2.4; n = 7 };
        };
      Serve.Request.Quote { mu = 0.003; sigma = 0.07; spot = 1.9 };
      Serve.Request.Route { from_tok = "XMR"; to_tok = "ETH"; max_hops = 3 };
    ]
  in
  List.iteri
    (fun i body ->
      let t = { Serve.Request.id = Some (Printf.sprintf "id%d" i); body } in
      let line = Serve.Request.encode t in
      check_str (Printf.sprintf "decode . encode fixpoint #%d" i) line
        (roundtrip line))
    bodies;
  (* Client field order and whitespace do not affect the canonical key. *)
  let a =
    Serve.Request.decode
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"quote\",\"mu\":0.0,\"sigma\":0.05,\"spot\":2.0,\"id\":\"x\"}"
  and b =
    Serve.Request.decode
      "{ \"id\":\"y\", \"spot\":2, \"sigma\":0.05, \"mu\":0, \"req\":\"quote\", \"schema\":\"htlc-serve/v1\" }"
  in
  match (a, b) with
  | Ok a, Ok b ->
    check_str "reordered requests share one cache key"
      (Serve.Request.key a) (Serve.Request.key b)
  | _ -> Alcotest.fail "both reorderings must decode"

let decode_err line =
  match Serve.Request.decode line with
  | Ok _ -> Alcotest.failf "decode %S unexpectedly succeeded" line
  | Error e -> e

let test_codec_errors () =
  let e = decode_err "this is not json" in
  check_str "garbage is a parse error" "parse_error" e.Serve.Request.code;
  check_bool "no id recovered from garbage" true (e.Serve.Request.err_id = None);
  let e =
    decode_err "{\"schema\":\"htlc-serve/v2\",\"req\":\"quote\",\"mu\":0,\"sigma\":0.05,\"spot\":2}"
  in
  check_str "wrong schema version" "parse_error" e.Serve.Request.code;
  let e =
    decode_err "{\"schema\":\"htlc-serve/v1\",\"id\":\"k\",\"req\":\"frobnicate\"}"
  in
  check_str "unknown req" "parse_error" e.Serve.Request.code;
  check_bool "id recovered from a rejected request" true
    (e.Serve.Request.err_id = Some "k");
  let e =
    decode_err
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"d\",\"req\":\"quote\",\"mu\":0,\"mu\":0.1,\"sigma\":0.05,\"spot\":2}"
  in
  check_str "duplicate key is a parse error (strict decoding)" "parse_error"
    e.Serve.Request.code;
  let e =
    decode_err
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"success_rate\",\"p_star\":-2}"
  in
  check_str "non-positive p_star" "invalid_params" e.Serve.Request.code;
  let e =
    decode_err
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"sweep\",\"lo\":1.6,\"hi\":2.4,\"n\":5,\"nn\":1}"
  in
  check_str "unknown key is rejected, not ignored" "invalid_params"
    e.Serve.Request.code;
  let e =
    decode_err
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"sweep\",\"lo\":1.6,\"hi\":2.4,\"n\":1}"
  in
  check_str "sweep needs n >= 2" "invalid_params" e.Serve.Request.code;
  let e =
    decode_err
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"success_rate\",\"p_star\":2,\"q\":-0.1}"
  in
  check_str "negative collateral" "invalid_params" e.Serve.Request.code;
  let e =
    decode_err
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"success_rate\",\"p_star\":2,\"params\":{\"sigma\":-1}}"
  in
  check_str "params are validated" "invalid_params" e.Serve.Request.code;
  let e =
    decode_err
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"route\",\"from\":\"BTC\",\"to\":\"BTC\",\"max_hops\":4}"
  in
  check_str "route tokens must differ" "invalid_params" e.Serve.Request.code;
  let e =
    decode_err
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"route\",\"from\":\"\",\"to\":\"ETH\",\"max_hops\":4}"
  in
  check_str "route rejects an empty token" "invalid_params"
    e.Serve.Request.code;
  let e =
    decode_err
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"route\",\"from\":\"BTC\",\"to\":\"ETH\",\"max_hops\":0}"
  in
  check_str "route hop bound must be >= 1" "invalid_params"
    e.Serve.Request.code;
  let e =
    decode_err
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"route\",\"from\":\"BTC\",\"to\":\"ETH\",\"max_hops\":2.5}"
  in
  check_str "route hop bound must be integral" "invalid_params"
    e.Serve.Request.code;
  let e =
    decode_err
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"route\",\"from\":\"BTC\",\"to\":\"ETH\",\"via\":\"SOL\"}"
  in
  check_str "route rejects unknown keys" "invalid_params"
    e.Serve.Request.code

let test_decode_fastpath_agreement () =
  (* The canonical scanner and the general JSON parser must agree: for
     every kind, the canonical encoding (fast path) and a reordered,
     whitespace-padded spelling of the same request (slow path) decode
     to the same cache key. *)
  let canonical_and_sloppy =
    [
      ( "{\"schema\":\"htlc-serve/v1\",\"id\":\"a\",\"req\":\"cutoffs\",\"p_star\":2}",
        "{ \"p_star\": 2.0, \"req\": \"cutoffs\", \"id\": \"a\", \"schema\": \"htlc-serve/v1\" }"
      );
      ( "{\"schema\":\"htlc-serve/v1\",\"req\":\"success_rate\",\"p_star\":1.9,\"q\":0.25}",
        "{\"q\":0.25, \"p_star\":1.9, \"req\":\"success_rate\", \"schema\":\"htlc-serve/v1\"}"
      );
      ( "{\"schema\":\"htlc-serve/v1\",\"req\":\"sweep\",\"q\":0,\"lo\":1.6,\"hi\":2.4,\"n\":5}",
        "{\"n\":5, \"hi\":2.4, \"lo\":1.6, \"q\":0.0, \"req\":\"sweep\", \"schema\":\"htlc-serve/v1\"}"
      );
      ( "{\"schema\":\"htlc-serve/v1\",\"req\":\"quote\",\"mu\":0,\"sigma\":0.075,\"spot\":2}",
        "{\"spot\":2e0, \"sigma\":7.5e-2, \"mu\":0, \"req\":\"quote\", \"schema\":\"htlc-serve/v1\"}"
      );
      ( "{\"schema\":\"htlc-serve/v1\",\"id\":\"h\",\"req\":\"health\"}",
        "{ \"req\":\"health\", \"id\":\"h\", \"schema\":\"htlc-serve/v1\" }" );
      ( "{\"schema\":\"htlc-serve/v1\",\"req\":\"route\",\"from\":\"BTC\",\"to\":\"ETH\",\"max_hops\":4}",
        "{\"max_hops\":4, \"to\":\"ETH\", \"from\":\"BTC\", \"req\":\"route\", \"schema\":\"htlc-serve/v1\"}"
      );
    ]
  in
  List.iteri
    (fun i (fast, slow) ->
      match (Serve.Request.decode fast, Serve.Request.decode slow) with
      | Ok a, Ok b ->
        check_str
          (Printf.sprintf "fast and slow paths agree on key #%d" i)
          (Serve.Request.key a) (Serve.Request.key b);
        (* The canonical re-encoding (params spelled out) must decode —
           through the general parser — back to the same key. *)
        (match Serve.Request.decode (Serve.Request.encode a) with
        | Ok c ->
          check_str
            (Printf.sprintf "re-encoded request keeps the key #%d" i)
            (Serve.Request.key a) (Serve.Request.key c)
        | Error e ->
          Alcotest.failf "re-encoding #%d must decode: %s" i e.message)
      | _ -> Alcotest.failf "pair #%d must decode on both paths" i)
    canonical_and_sloppy;
  (* A request with an explicit params object never takes the fast path;
     spelling the defaults out must still share the defaults key. *)
  let explicit =
    "{\"schema\":\"htlc-serve/v1\",\"req\":\"cutoffs\",\"params\":"
    ^ Serve.Request.params_json Swap.Params.defaults
    ^ ",\"p_star\":2}"
  and implicit = "{\"schema\":\"htlc-serve/v1\",\"req\":\"cutoffs\",\"p_star\":2}" in
  match (Serve.Request.decode explicit, Serve.Request.decode implicit) with
  | Ok a, Ok b ->
    check_str "explicit defaults share the implicit key"
      (Serve.Request.key b) (Serve.Request.key a)
  | _ -> Alcotest.fail "both spellings must decode"

(* [key] is binary, so what pins it is the question it stands for: two
   requests share a key exactly when their id-less canonical encodings
   are equal.  The draws sit where a binary key and printed JSON could
   part ways: 0. against -0., integers just below, at and above 1e15
   (where [Obs.Json.num] switches format), neighbours one ulp apart,
   subnormals; params that are the shared defaults, a structural copy
   or a one-field variant; route tokens that are prefixes of each
   other; a sweep [n] above 2^32.  The second request of a pair is
   mostly the first with one field redrawn, so equal and unequal keys
   both come up often. *)
let key_property =
  let open QCheck in
  let module R = Serve.Request in
  let d = Swap.Params.defaults in
  let fl =
    Gen.oneofl
      [ 0.; -0.; 2.; -2.; Float.succ 2.; Float.pred 2.; 0.1; Float.succ 0.1;
        999_999_999_999_999.; 1e15; 1_000_000_000_000_001.; -1e15;
        Float.succ 1e15; Float.succ 0.; 2.5e-320; Float.pred Float.min_float;
        1e300 ]
  in
  let with_field (p : Swap.Params.t) i x =
    match i with
    | 0 -> { p with alice = { p.alice with alpha = x } }
    | 1 -> { p with bob = { p.bob with alpha = x } }
    | 2 -> { p with alice = { p.alice with r = x } }
    | 3 -> { p with bob = { p.bob with r = x } }
    | 4 -> { p with tau_a = x }
    | 5 -> { p with tau_b = x }
    | 6 -> { p with eps_b = x }
    | 7 -> { p with p0 = x }
    | 8 -> { p with mu = x }
    | _ -> { p with sigma = x }
  in
  let params =
    Gen.frequency
      [ (2, Gen.return d);
        (1, Gen.return { d with tau_a = d.tau_a });
        (4, Gen.map2 (with_field d) (Gen.int_bound 9) fl) ]
  in
  let n = Gen.oneofl [ 2; 5; 6; (1 lsl 32) + 5; (1 lsl 32) + 6; 1 lsl 40 ] in
  let token = Gen.oneofl [ "A"; "AB"; "ABC"; "B"; "BC"; "C"; "\"A"; "A\\" ] in
  let hops = Gen.oneofl [ 1; 3; 4 ] in
  let cutoffs = Gen.map2 (fun params p_star -> R.Cutoffs { params; p_star }) params fl in
  let success_rate =
    Gen.map3 (fun params p_star q -> R.Success_rate { params; p_star; q }) params fl fl
  in
  let sweep =
    Gen.(
      let+ params = params and+ q = fl and+ lo = fl and+ hi = fl and+ n = n in
      R.Sweep { params; q; spec = { R.lo; hi; n } })
  in
  let quote = Gen.map3 (fun mu sigma spot -> R.Quote { mu; sigma; spot }) fl fl fl in
  let route =
    Gen.map3 (fun from_tok to_tok max_hops -> R.Route { from_tok; to_tok; max_hops }) token token hops
  in
  let body =
    Gen.oneof
      [ cutoffs; success_rate; sweep; quote; route; Gen.return R.Health; Gen.return R.Stats ]
  in
  (* [b] redraws one field of [a] (or its params), or is [a] again
     with a structurally copied params record. *)
  let redraw a =
    let open Gen in
    let fresh (p : Swap.Params.t) = { p with tau_a = p.tau_a } in
    match a with
    | R.Cutoffs { params = p; p_star } ->
      oneof
        [ map (fun p_star -> R.Cutoffs { params = p; p_star }) fl;
          map (fun params -> R.Cutoffs { params; p_star }) params;
          return (R.Cutoffs { params = fresh p; p_star }) ]
    | R.Success_rate { params = p; p_star; q } ->
      oneof
        [ map (fun p_star -> R.Success_rate { params = p; p_star; q }) fl;
          map (fun q -> R.Success_rate { params = p; p_star; q }) fl;
          map2 (fun i x -> R.Success_rate { params = with_field p i x; p_star; q }) (int_bound 9) fl;
          return (R.Success_rate { params = fresh p; p_star; q }) ]
    | R.Sweep { params = p; q; spec } ->
      oneof
        [ map (fun q -> R.Sweep { params = p; q; spec }) fl;
          map (fun lo -> R.Sweep { params = p; q; spec = { spec with lo } }) fl;
          map (fun hi -> R.Sweep { params = p; q; spec = { spec with hi } }) fl;
          map (fun n -> R.Sweep { params = p; q; spec = { spec with n } }) n;
          map2 (fun i x -> R.Sweep { params = with_field p i x; q; spec }) (int_bound 9) fl;
          return (R.Sweep { params = fresh p; q; spec }) ]
    | R.Quote { mu; sigma; spot } ->
      oneof
        [ map (fun mu -> R.Quote { mu; sigma; spot }) fl;
          map (fun sigma -> R.Quote { mu; sigma; spot }) fl;
          map (fun spot -> R.Quote { mu; sigma; spot }) fl ]
    | R.Route { from_tok; to_tok; max_hops } ->
      (* Re-splitting the two tokens' concatenation elsewhere keeps
         their bytes and changes the question. *)
      let joined = from_tok ^ to_tok in
      let resplit k =
        let k = 1 + (k mod (String.length joined - 1)) in
        R.Route
          { from_tok = String.sub joined 0 k;
            to_tok = String.sub joined k (String.length joined - k);
            max_hops }
      in
      oneof
        [ map (fun from_tok -> R.Route { from_tok; to_tok; max_hops }) token;
          map (fun to_tok -> R.Route { from_tok; to_tok; max_hops }) token;
          map (fun max_hops -> R.Route { from_tok; to_tok; max_hops }) hops;
          map resplit (int_bound 7) ]
    | R.Health | R.Stats -> body
  in
  let pair =
    Gen.(
      body >>= fun a ->
      frequency [ (4, redraw a); (1, body) ] >|= fun b ->
      ({ R.id = Some "a"; body = a }, { R.id = Some "b"; body = b }))
  in
  let print (a, b) = R.encode a ^ "\n" ^ R.encode b in
  Test.make ~name:"key equality is id-less encoding equality" ~count:3000
    (make ~print pair)
    (fun (a, b) ->
      String.equal (R.key a) (R.key b)
      = String.equal (R.encode { a with id = None }) (R.encode { b with id = None }))

(* --- binary codec (htlc-serve/b1) ---------------------------------------- *)

let f64_be x =
  let bits = Int64.bits_of_float x in
  String.init 8 (fun i ->
      Char.chr
        (Int64.to_int (Int64.logand (Int64.shift_right_logical bits ((7 - i) * 8)) 0xFFL)))

let test_binary_golden () =
  (* Pin the wire bytes exactly: kind tag, flags, id block, fields. *)
  let health = { Serve.Request.id = Some "h"; body = Serve.Request.Health } in
  check_str "health payload" "\x05\x01\x00\x01h"
    (Serve.Binary.encode_payload health);
  check_str "framed health request" "\x00\x00\x00\x05\x05\x01\x00\x01h"
    (Serve.Binary.encode_request health);
  let cutoffs =
    {
      Serve.Request.id = None;
      body = Serve.Request.Cutoffs { params = Swap.Params.defaults; p_star = 2. };
    }
  in
  (* Defaults params travel as "omitted": flags bit1 clear, 10 bytes total. *)
  check_str "cutoffs payload (defaults omitted)"
    ("\x01\x00" ^ f64_be 2.)
    (Serve.Binary.encode_payload cutoffs);
  let quote =
    {
      Serve.Request.id = Some "r1";
      body = Serve.Request.Quote { mu = 0.; sigma = 0.125; spot = 2. };
    }
  in
  check_str "quote payload"
    ("\x04\x01\x00\x02r1" ^ f64_be 0. ^ f64_be 0.125 ^ f64_be 2.)
    (Serve.Binary.encode_payload quote);
  let sweep =
    {
      Serve.Request.id = None;
      body =
        Serve.Request.Sweep
          {
            params = Swap.Params.defaults;
            q = 0.25;
            spec = { lo = 1.6; hi = 2.4; n = 9 };
          };
    }
  in
  (* u32 n is the last field — the torn-cursor regression case. *)
  check_str "sweep payload"
    ("\x03\x00" ^ f64_be 0.25 ^ f64_be 1.6 ^ f64_be 2.4 ^ "\x00\x00\x00\x09")
    (Serve.Binary.encode_payload sweep);
  let route =
    {
      Serve.Request.id = Some "r";
      body =
        Serve.Request.Route { from_tok = "BTC"; to_tok = "ETH"; max_hops = 4 };
    }
  in
  (* Tag 7, id block, then u16-length-prefixed tokens and a u8 bound. *)
  check_str "route payload" "\x07\x01\x00\x01r\x00\x03BTC\x00\x03ETH\x04"
    (Serve.Binary.encode_payload route)

let test_binary_roundtrip () =
  let custom =
    { Swap.Params.defaults with sigma = 0.11; p0 = 1.7 }
  in
  let bodies =
    [
      Serve.Request.Cutoffs { params = Swap.Params.defaults; p_star = 2. };
      Serve.Request.Cutoffs { params = custom; p_star = 1.8 };
      Serve.Request.Success_rate
        { params = Swap.Params.defaults; p_star = 2.; q = 0.25 };
      Serve.Request.Sweep
        {
          params = custom;
          q = 0.1;
          spec = { lo = 1.6; hi = 2.4; n = 7 };
        };
      Serve.Request.Quote { mu = 0.003; sigma = 0.07; spot = 1.9 };
      Serve.Request.Route { from_tok = "XMR"; to_tok = "USDC"; max_hops = 5 };
      Serve.Request.Health;
    ]
  in
  List.iteri
    (fun i body ->
      let id = if i mod 2 = 0 then Some (Printf.sprintf "b%d" i) else None in
      let t = { Serve.Request.id; body } in
      match Serve.Binary.decode_payload (Serve.Binary.encode_payload t) with
      | Ok t' ->
        check_bool (Printf.sprintf "binary roundtrip #%d" i) true (t = t');
        check_str
          (Printf.sprintf "binary and JSON decode share the key #%d" i)
          (Serve.Request.key t) (Serve.Request.key t')
      | Error e -> Alcotest.failf "roundtrip #%d rejected: %s" i e.message)
    bodies;
  (* Omitted params must decode to the physically shared defaults: the
     encoder omits only that record, so a decoded payload re-encodes to
     its own bytes. *)
  let t =
    {
      Serve.Request.id = None;
      body = Serve.Request.Cutoffs { params = Swap.Params.defaults; p_star = 2. };
    }
  in
  match Serve.Binary.decode_payload (Serve.Binary.encode_payload t) with
  | Ok ({ body = Serve.Request.Cutoffs { params; _ }; _ } as t') ->
    check_bool "decoded defaults are physically shared" true
      (params == Swap.Params.defaults);
    check_str "decoded defaults re-encode to the same payload"
      (Serve.Binary.encode_payload t) (Serve.Binary.encode_payload t')
  | _ -> Alcotest.fail "cutoffs must roundtrip"

let bin_err payload =
  match Serve.Binary.decode_payload payload with
  | Ok _ -> Alcotest.failf "payload unexpectedly decoded"
  | Error e -> e

let test_binary_errors () =
  (* Malformed bytes are parse_error; out-of-domain values are
     invalid_params — the same taxonomy the JSON codec answers. *)
  let e = bin_err "" in
  check_str "empty payload" "parse_error" e.Serve.Request.code;
  let e = bin_err "\x09\x00" in
  check_str "unknown kind tag" "parse_error" e.Serve.Request.code;
  let e = bin_err "\x01\x04" in
  check_str "unknown flags" "parse_error" e.Serve.Request.code;
  let e = bin_err "\x01\x00\x40\x00" in
  check_str "truncated field" "parse_error" e.Serve.Request.code;
  let e = bin_err ("\x01\x00" ^ f64_be 2. ^ "junk") in
  check_str "trailing bytes" "parse_error" e.Serve.Request.code;
  let e = bin_err ("\x04\x02" ^ f64_be 0. ^ f64_be 0.05 ^ f64_be 2.) in
  check_str "quote refuses a params block" "parse_error" e.Serve.Request.code;
  let e = bin_err ("\x01\x01\x00\x01k" ^ f64_be (-2.)) in
  check_str "negative p_star" "invalid_params" e.Serve.Request.code;
  check_bool "id recovered from a rejected payload" true
    (e.Serve.Request.err_id = Some "k");
  let e =
    bin_err
      ("\x03\x00" ^ f64_be 0. ^ f64_be 1.6 ^ f64_be 2.4 ^ "\x00\x00\x00\x01")
  in
  check_str "sweep needs n >= 2" "invalid_params" e.Serve.Request.code;
  let e = bin_err ("\x01\x00" ^ f64_be Float.nan) in
  check_str "non-finite field" "invalid_params" e.Serve.Request.code;
  let e = bin_err "\x07\x02\x00\x03BTC\x00\x03ETH\x04" in
  check_str "route refuses a params block" "parse_error" e.Serve.Request.code;
  let e = bin_err "\x07\x00\x00\x03BTC\x00\x03BTC\x04" in
  check_str "route tokens must differ (binary)" "invalid_params"
    e.Serve.Request.code;
  let e = bin_err "\x07\x00\x00\x03BTC\x00\x03ETH\x00" in
  check_str "route hop bound must be >= 1 (binary)" "invalid_params"
    e.Serve.Request.code;
  let e = bin_err "\x07\x00\x00\x05BT" in
  check_str "truncated route token" "parse_error" e.Serve.Request.code;
  (* The encoder refuses what b1's widths cannot carry: truncated, a
     sweep's n = 2^32 + 5 would come back as 5 and max_hops 257 as 1. *)
  let sweep n =
    {
      Serve.Request.id = None;
      body =
        Serve.Request.Sweep
          { params = Swap.Params.defaults; q = 0.; spec = { lo = 1.6; hi = 2.4; n } };
    }
  in
  let refused name req =
    match Serve.Binary.encode_payload req with
    | _ -> Alcotest.failf "%s must not encode" name
    | exception Invalid_argument _ -> ()
  in
  refused "sweep n above 2^32" (sweep ((1 lsl 32) + 5));
  refused "negative sweep n" (sweep (-1));
  check_bool "the largest u32 n round-trips" true
    (Serve.Binary.decode_payload (Serve.Binary.encode_payload (sweep 0xffff_ffff))
    = Ok (sweep 0xffff_ffff));
  let route max_hops =
    {
      Serve.Request.id = None;
      body = Serve.Request.Route { from_tok = "BTC"; to_tok = "ETH"; max_hops };
    }
  in
  refused "max_hops above 255" (route 257);
  refused "negative max_hops" (route (-1))

(* Append [s] to a buffer, as a [refill] would. *)
let iobuf_add buf s =
  let at = Serve.Iobuf.extend buf (String.length s) in
  Bytes.blit_string s 0 (Serve.Iobuf.storage buf) at (String.length s)

(* A b1 frame: the bytes behind their big-endian u32 length. *)
let frame payload =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length payload));
  Bytes.to_string b ^ payload

let test_binary_incremental () =
  (* The incremental decoder must reassemble frames identically no
     matter how the bytes arrive: whole, byte-at-a-time, or in a
     deterministic pseudo-random chunk schedule. *)
  let payloads =
    List.init 32 (fun i ->
        Serve.Binary.encode_payload
          {
            Serve.Request.id = Some (Printf.sprintf "f%d" i);
            body =
              (if i mod 3 = 0 then
                 Serve.Request.Sweep
                   {
                     params = Swap.Params.defaults;
                     q = 0.;
                     spec = { lo = 1.6; hi = 2.4; n = 2 + i };
                   }
               else
                 Serve.Request.Quote
                   { mu = 0.; sigma = 0.05; spot = 1. +. (0.01 *. float_of_int i) });
          })
  in
  let stream = String.concat "" (List.map frame payloads) in
  let feed schedule =
    let buf = Serve.Iobuf.create () in
    let got = ref [] in
    let drain () =
      let rec go () =
        match Serve.Binary.decode_frame buf with
        | `Frame p ->
          got := p :: !got;
          go ()
        | `Need_more -> ()
        | `Too_large n -> Alcotest.failf "spurious Too_large %d" n
      in
      go ()
    in
    let pos = ref 0 in
    let state = ref schedule in
    while !pos < String.length stream do
      (* Chunk sizes 1..9 from a seeded LCG: deterministic, lint-clean. *)
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      let chunk = min (1 + (!state mod 9)) (String.length stream - !pos) in
      iobuf_add buf (String.sub stream !pos chunk);
      pos := !pos + chunk;
      drain ()
    done;
    check_bool "no residual bytes" true (Serve.Iobuf.is_empty buf);
    List.rev !got
  in
  List.iter
    (fun seed ->
      check_bool
        (Printf.sprintf "chunked reassembly matches (seed %d)" seed)
        true
        (feed seed = payloads))
    [ 1; 7; 42; 1337 ];
  (* A partial frame is Need_more, never a frame and never an error. *)
  let buf = Serve.Iobuf.create () in
  iobuf_add buf "\x00\x00\x00\x0a\x05\x00";
  check_bool "partial frame parks" true
    (Serve.Binary.decode_frame buf = `Need_more);
  check_int "partial frame left buffered" 6 (Serve.Iobuf.length buf);
  (* An oversized header is unrecoverable and reported as such. *)
  let buf = Serve.Iobuf.create () in
  iobuf_add buf "\x7f\xff\xff\xff";
  match Serve.Binary.decode_frame buf with
  | `Too_large n -> check_int "oversized header reported" 0x7fffffff n
  | _ -> Alcotest.fail "oversized header must be Too_large"

let test_binary_socket_roundtrip () =
  let e = make_engine () in
  let path = Printf.sprintf "/tmp/htlc-serve-bin-%d.sock" (Unix.getpid ()) in
  let server = Serve.Server.listen e ~path () in
  let reference = make_engine () in
  let json_lines =
    [
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"s1\",\"req\":\"success_rate\",\"p_star\":2}";
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"s2\",\"req\":\"quote\",\"mu\":0,\"sigma\":0.075,\"spot\":2}";
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"s3\",\"req\":\"quote\",\"mu\":0.9,\"sigma\":0.075,\"spot\":2}";
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"s1\",\"req\":\"success_rate\",\"p_star\":2}";
    ]
  in
  let reqs =
    List.map
      (fun l ->
        match Serve.Request.decode l with
        | Ok r -> r
        | Error _ -> Alcotest.failf "test line must decode: %s" l)
      json_lines
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* One pipelined burst: magic, then every frame, then read them back. *)
  output_string oc Serve.Binary.magic;
  List.iter (fun r -> output_string oc (Serve.Binary.encode_request r)) reqs;
  flush oc;
  List.iteri
    (fun i line ->
      match Serve.Binary.input_frame ic with
      | Some body ->
        check_str
          (Printf.sprintf "binary response #%d byte-identical to direct" i)
          (Serve.Engine.handle reference line)
          body
      | None -> Alcotest.failf "server closed before response #%d" i)
    json_lines;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* A torn frame: header promising 20 bytes, only 5 sent, then EOF.
     The server must drop the connection without answering — and keep
     serving new connections. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let oc2 = Unix.out_channel_of_descr fd in
  output_string oc2 Serve.Binary.magic;
  output_string oc2 "\x00\x00\x00\x14\x05\x01\x00\x01h";
  flush oc2;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let ic2 = Unix.in_channel_of_descr fd in
  (match Serve.Binary.input_frame ic2 with
  | None -> ()
  | Some body -> Alcotest.failf "torn frame must not be answered, got %S" body);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* An oversized header: the server kills the connection immediately. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let oc3 = Unix.out_channel_of_descr fd in
  output_string oc3 Serve.Binary.magic;
  output_string oc3 "\x7f\xff\xff\xff";
  flush oc3;
  let ic3 = Unix.in_channel_of_descr fd in
  (match input_char ic3 with
  | _ -> Alcotest.fail "oversized header must close the connection"
  | exception End_of_file -> ()
  | exception Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* The server survived both protocol violations. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic4 = Unix.in_channel_of_descr fd in
  let oc4 = Unix.out_channel_of_descr fd in
  output_string oc4 Serve.Binary.magic;
  output_string oc4
    (Serve.Binary.encode_request
       { Serve.Request.id = Some "again"; body = Serve.Request.Health });
  flush oc4;
  (match Serve.Binary.input_frame ic4 with
  | Some body ->
    check_bool "server still serves after violations" true
      (contains body "\"status\":\"ok\"" && contains body "\"id\":\"again\"")
  | None -> Alcotest.fail "server must still answer after violations");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Serve.Server.shutdown server

(* --- cache --------------------------------------------------------------- *)

let test_cache_hit_miss () =
  let c = Serve.Cache.create ~shards:2 ~capacity:8 () in
  check_bool "empty miss" true (Serve.Cache.find c "k1" = None);
  Serve.Cache.add c "k1" "v1";
  check_bool "hit after add" true (Serve.Cache.find c "k1" = Some "v1");
  Serve.Cache.add c "k1" "clobber";
  check_bool "incumbent value wins a racing add" true
    (Serve.Cache.find c "k1" = Some "v1");
  let s = Serve.Cache.stats c in
  check_int "hits" 2 s.Serve.Cache.hits;
  check_int "misses" 1 s.Serve.Cache.misses;
  check_int "no evictions below capacity" 0 s.Serve.Cache.evictions

let test_cache_second_chance () =
  (* One shard makes eviction order deterministic: a full shard evicts
     the first entry in arrival order whose referenced bit is unset, and
     the sweep clears bits as it passes. *)
  let c = Serve.Cache.create ~shards:1 ~capacity:4 () in
  List.iter (fun k -> Serve.Cache.add c k ("v" ^ k)) [ "a"; "b"; "c"; "d" ];
  ignore (Serve.Cache.find c "a");
  (* [a] is referenced. *)
  Serve.Cache.add c "e" "ve";
  (* Clock sweep: skips [a] (clearing its bit), evicts [b]. *)
  check_bool "recently-hit entry survives" true
    (Serve.Cache.find c "a" = Some "va");
  check_bool "oldest unreferenced entry evicted" true
    (Serve.Cache.find c "b" = None);
  check_bool "newcomer present" true (Serve.Cache.find c "e" = Some "ve");
  let s = Serve.Cache.stats c in
  check_int "exactly one eviction" 1 s.Serve.Cache.evictions;
  check_int "length stays at capacity" 4 (Serve.Cache.length c)

let test_cache_capacity_bound () =
  let c = Serve.Cache.create ~shards:4 ~capacity:16 () in
  for i = 1 to 200 do
    Serve.Cache.add c (Printf.sprintf "key%d" i) "v"
  done;
  check_bool "length bounded by capacity under churn" true
    (Serve.Cache.length c <= Serve.Cache.capacity c);
  check_bool "eviction counter moved" true
    ((Serve.Cache.stats c).Serve.Cache.evictions > 0);
  (match Serve.Cache.create ~shards:0 () with
  | _ -> Alcotest.fail "shards = 0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Serve.Cache.create ~shards:8 ~capacity:4 () with
  | _ -> Alcotest.fail "capacity < shards must be rejected"
  | exception Invalid_argument _ -> ()

(* Readers on three domains while one writer adds past capacity: every
   find answers nothing or the value added under that key (physically:
   each key has one value), the hit and miss counts add up to the finds,
   and the cache never holds more than its capacity. *)
let test_cache_concurrent () =
  let c = Serve.Cache.create ~shards:2 ~capacity:16 () in
  let keys = Array.init 64 (Printf.sprintf "key-%d") in
  let values = Array.map (fun k -> "value of " ^ k) keys in
  let writing = Atomic.make true in
  let reader () =
    let finds = ref 0 and wrong = ref 0 and over = ref 0 and passes = ref 0 in
    while Atomic.get writing || !passes < 50 do
      incr passes;
      Array.iteri
        (fun i k ->
          incr finds;
          match Serve.Cache.find c k with
          | None -> ()
          | Some v -> if v != values.(i) then incr wrong)
        keys;
      if Serve.Cache.length c > Serve.Cache.capacity c then incr over
    done;
    (!finds, !wrong, !over)
  in
  let readers = Array.init 3 (fun _ -> Domain.spawn reader) in
  for round = 1 to 300 do
    Array.iteri
      (fun i k -> if (i + round) mod 3 <> 0 then Serve.Cache.add c k values.(i))
      keys
  done;
  Atomic.set writing false;
  let results = Array.map Domain.join readers in
  let finds = Array.fold_left (fun acc (f, _, _) -> acc + f) 0 results in
  check_int "every find answered nothing or its key's value" 0
    (Array.fold_left (fun acc (_, w, _) -> acc + w) 0 results);
  check_int "length never exceeded capacity" 0
    (Array.fold_left (fun acc (_, _, o) -> acc + o) 0 results);
  let s = Serve.Cache.stats c in
  check_int "hits + misses = finds" finds (s.hits + s.misses);
  check_bool "the writer evicted" true (s.evictions > 0);
  check_bool "length <= capacity at rest" true
    (Serve.Cache.length c <= Serve.Cache.capacity c)

(* --- write-buffer splice -------------------------------------------------- *)

let iobuf_take buf =
  let s = Serve.Iobuf.sub buf 0 (Serve.Iobuf.length buf) in
  Serve.Iobuf.consume buf (Serve.Iobuf.length buf);
  s

(* The splice writes, in place, what [assemble] returns: a JSON line
   with its newline, or a b1 frame.  Both agree with the response as
   the schema prefix, [Obs.Json.str] of the id ("null" for none), a
   comma and the body. *)
let test_splice_matches_assemble () =
  let ids =
    [
      None; Some ""; Some "r1"; Some "q\"uote"; Some "back\\slash";
      Some "ctl \x00\x01\x08\x0c\x1f\n\t\r end"; Some "\xc3\xa9\x7f";
      Some (String.make 300 'x');
    ]
  in
  let bodies =
    [
      Serve.Response.ok_body ~req:"quote" ~result:"{\"p_star\":2,\"sr\":0.5}";
      Serve.Response.error_body ~code:"parse_error" ~message:"bad \"json\"" ();
      Serve.Response.error_body ~req:"sweep" ~code:"invalid_params"
        ~message:(String.make 5000 'm') ();
    ]
  in
  (* A small buffer holding unconsumed bytes, so splices land at an
     offset and make it compact and grow. *)
  let buf = Serve.Iobuf.create ~initial:16 () in
  List.iter
    (fun id ->
      List.iter
        (fun body ->
          let want = Serve.Response.assemble ~id body in
          let id_json = match id with Some s -> Obs.Json.str s | None -> "null" in
          check_str "assemble = prefix, id literal, comma, body"
            (String.concat "" [ "{\"schema\":\"htlc-serve/v1\",\"id\":"; id_json; ","; body ])
            want;
          iobuf_add buf "held";
          Serve.Iobuf.consume buf 3;
          Serve.Response.splice buf ~framed:false ~id body;
          check_str "a spliced line is the assembled response and a newline"
            ("d" ^ want ^ "\n") (iobuf_take buf);
          Serve.Response.splice buf ~framed:true ~id body;
          check_str "a spliced frame is the assembled response, length-prefixed"
            (frame want) (iobuf_take buf))
        bodies)
    ids;
  (* A frame over the b1 limit appends nothing. *)
  let huge = String.make Serve.Binary.max_frame 'b' in
  (match Serve.Response.splice buf ~framed:true ~id:None huge with
  | () -> Alcotest.fail "a frame over max_frame must be refused"
  | exception Invalid_argument _ -> ());
  check_int "nothing appended" 0 (Serve.Iobuf.length buf)

(* [index] against a plain scan of a model of the live bytes, across
   random appends and consumes: compaction, growth and the offset reset
   on an emptied buffer leave stale bytes (newlines among them) in the
   storage outside the live span, which must never be found. *)
let test_iobuf_index () =
  let rng = Numerics.Rng.create ~seed:31 () in
  let naive live c =
    match String.index_opt live c with Some i -> i | None -> -1
  in
  for trial = 1 to 300 do
    let buf = Serve.Iobuf.create ~initial:(1 + Numerics.Rng.int_below rng 40) () in
    let live = ref "" in
    for _ = 1 to 40 do
      (if Numerics.Rng.int_below rng 3 = 0 && !live <> "" then begin
         let k = Numerics.Rng.int_below rng (String.length !live + 1) in
         Serve.Iobuf.consume buf k;
         live := String.sub !live k (String.length !live - k)
       end
       else
         let s =
           String.init (Numerics.Rng.int_below rng 30) (fun _ ->
               match Numerics.Rng.int_below rng 16 with
               | 0 -> '\n'
               | 1 -> '\xff'
               | 2 -> '\x00'
               | r -> Char.chr (96 + r))
         in
         iobuf_add buf s;
         live := !live ^ s);
      List.iter
        (fun c ->
          let want = naive !live c and got = Serve.Iobuf.index buf c in
          if want <> got then
            Alcotest.failf "trial %d: index %C over %S is %d, want %d" trial c !live
              got want)
        [ '\n'; '\xff'; '\x00'; 'a' ]
    done
  done;
  (* Pinned: a newline left in storage past the live span.  The emptied
     buffer restarts at offset 0 with the old bytes behind it. *)
  let buf = Serve.Iobuf.create ~initial:64 () in
  iobuf_add buf (String.make 19 'x' ^ "\n");
  Serve.Iobuf.consume buf 20;
  iobuf_add buf (String.make 16 'y');
  check_int "a stale newline past the span is not found" (-1)
    (Serve.Iobuf.index buf '\n');
  iobuf_add buf "z\n";
  check_int "the live one is" 17 (Serve.Iobuf.index buf '\n')

(* --- engine -------------------------------------------------------------- *)

let test_engine_handle () =
  let e = make_engine () in
  let ok line frag =
    let resp = Serve.Engine.handle e line in
    check_bool (Printf.sprintf "ok response for %s" frag) true
      (contains resp "\"status\":\"ok\"" && contains resp frag)
  in
  ok "{\"schema\":\"htlc-serve/v1\",\"id\":\"a\",\"req\":\"cutoffs\",\"p_star\":2}"
    "\"p_t3_low\":";
  ok "{\"schema\":\"htlc-serve/v1\",\"req\":\"success_rate\",\"p_star\":2}"
    "\"sr\":";
  ok "{\"schema\":\"htlc-serve/v1\",\"req\":\"quote\",\"mu\":0,\"sigma\":0.075,\"spot\":2}"
    "\"p_star\":";
  let resp =
    Serve.Engine.handle e
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"quote\",\"mu\":0.5,\"sigma\":0.075,\"spot\":2}"
  in
  check_bool "off-grid quote is a structured error" true
    (contains resp "\"error\":\"outside_grid\"");
  let resp =
    Serve.Engine.handle e
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"quote\",\"mu\":0,\"sigma\":0.075,\"spot\":-1}"
  in
  check_bool "non-positive spot is its own code" true
    (contains resp "\"error\":\"non_positive_spot\"");
  let resp =
    Serve.Engine.handle e
      "{\"schema\":\"htlc-serve/v1\",\"req\":\"sweep\",\"lo\":1.6,\"hi\":2.4,\"n\":100000}"
  in
  check_bool "sweep size is capped" true
    (contains resp "\"error\":\"invalid_params\"");
  check_bool "an undecodable line is a parse error" true
    (contains (Serve.Engine.handle e "not json") "\"error\":\"parse_error\"");
  let s = Serve.Engine.stats e in
  check_int "requests counted" 6 s.Serve.Engine.requests;
  check_int "ok bodies" 3 s.Serve.Engine.ok;
  check_int "error bodies" 3 s.Serve.Engine.errors;
  check_int "parse errors counted apart" 1 s.Serve.Engine.parse_errors

let test_engine_cache_identity () =
  let e = make_engine () in
  let line id =
    Printf.sprintf
      "{\"schema\":\"htlc-serve/v1\",\"id\":%s,\"req\":\"success_rate\",\"p_star\":2}"
      id
  in
  let r1 = Serve.Engine.handle e (line "\"x\"") in
  let r2 = Serve.Engine.handle e (line "\"y\"") in
  let strip_to_req s =
    match String.index_opt s ',' with
    | None -> s
    | Some _ ->
      let marker = "\"req\"" in
      let rec find i =
        if i >= String.length s then s
        else if
          i + String.length marker <= String.length s
          && String.sub s i (String.length marker) = marker
        then String.sub s i (String.length s - i)
        else find (i + 1)
      in
      find 0
  in
  check_str "cached repeat is byte-identical after the id"
    (strip_to_req r1) (strip_to_req r2);
  check_bool "ids differ" true (r1 <> r2);
  let s = Serve.Engine.stats e in
  check_int "second answer came from the cache"
    1 s.Serve.Engine.cache.Serve.Cache.hits

let test_engine_route () =
  let e = make_engine () in
  let line = function
    | Some (from_tok, to_tok, hops) ->
      Printf.sprintf
        "{\"schema\":\"htlc-serve/v1\",\"id\":\"r\",\"req\":\"route\",\"from\":%S,\"to\":%S,\"max_hops\":%d}"
        from_tok to_tok hops
    | None -> assert false
  in
  (* The default universe keeps XMR two hops from the smart-contract
     chains, so a 4-hop budget routes and a 1-hop budget cannot. *)
  let ok = Serve.Engine.handle e (line (Some ("XMR", "USDC", 4))) in
  check_bool "route answers a path" true
    (contains ok "\"status\":\"ok\"" && contains ok "\"path\":[\"XMR\"");
  check_bool "route reports product SR" true (contains ok "\"sr\":");
  let resp = Serve.Engine.handle e (line (Some ("XMR", "USDC", 1))) in
  check_bool "hop-starved pair is no_route" true
    (contains resp "\"error\":\"no_route\"");
  let resp = Serve.Engine.handle e (line (Some ("DOGE", "USDC", 4))) in
  check_bool "unknown token is invalid_params" true
    (contains resp "\"error\":\"invalid_params\"" && contains resp "DOGE");
  (* Byte identity across codecs: the binary decode of the same request
     must produce the same response bytes (spliced id included), served
     from the cache the JSON path populated. *)
  let req =
    {
      Serve.Request.id = Some "r";
      body =
        Serve.Request.Route
          { from_tok = "XMR"; to_tok = "USDC"; max_hops = 4 };
    }
  in
  let hits_before = (Serve.Engine.stats e).cache.Serve.Cache.hits in
  (match Serve.Binary.decode_payload (Serve.Binary.encode_payload req) with
  | Ok decoded ->
    check_str "binary-decoded route is byte-identical" ok
      (Serve.Engine.handle_decoded e decoded)
  | Error err -> Alcotest.failf "route payload must decode: %s" err.message);
  let hits_after = (Serve.Engine.stats e).cache.Serve.Cache.hits in
  check_int "route is cache-keyed across codecs" (hits_before + 1) hits_after

(* --- allocation on the hit path ------------------------------------------ *)

(* Words, not time: a count is exact on any host.  One fixed request per
   cacheable kind, with the shared defaults as params like perfbench's
   hot set; (kind, request, key bound, cached-answer bound, spliced
   bound).  The key allocates only its own string (13, 14, 16, 5 and 5
   words), a cached [handle_decoded] 41, 29, 50, 23 and 26 (the key and
   the response string), and a cached answer
   spliced into a write buffer nothing but the key; each bound sits
   ~1.2x above.  A key that prints its floats as canonical JSON
   allocates 50-80 words by itself, and a response string built per
   spliced hit 15-34, so the bounds catch either. *)
let hit_path_cases =
  let d = Swap.Params.defaults in
  [
    ("cutoffs", Serve.Request.Cutoffs { params = d; p_star = 1.9 }, 16., 49., 16.);
    ( "success_rate",
      Serve.Request.Success_rate { params = d; p_star = 2.1; q = 0.3 },
      17., 35., 17. );
    ( "sweep",
      Serve.Request.Sweep { params = d; q = 0.; spec = { lo = 1.7; hi = 2.3; n = 5 } },
      19., 60., 19. );
    ("quote", Serve.Request.Quote { mu = 0.; sigma = 0.075; spot = 2. }, 6., 28., 6.);
    ( "route",
      Serve.Request.Route { from_tok = "BTC"; to_tok = "ETH"; max_hops = 3 },
      6., 31., 6. );
  ]

let words_per_call f =
  f ();
  let calls = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let test_alloc_per_hit () =
  let e = make_engine () in
  List.iter
    (fun (kind, body, key_bound, hit_bound, _) ->
      let req = { Serve.Request.id = Some "h1"; body } in
      let key_words =
        words_per_call (fun () -> ignore (Sys.opaque_identity (Serve.Request.key req)))
      in
      ignore (Serve.Engine.handle_decoded e req);
      let hit_words =
        words_per_call (fun () ->
            ignore (Sys.opaque_identity (Serve.Engine.handle_decoded e req)))
      in
      if key_words > key_bound then
        Alcotest.failf "Request.key allocates %.1f words on a %s request (bound %.0f)"
          key_words kind key_bound;
      if hit_words > hit_bound then
        Alcotest.failf "a cached %s answer allocates %.1f words (bound %.0f)" kind
          hit_words hit_bound)
    hit_path_cases;
  let s = Serve.Engine.stats e in
  check_int "every measured answer was a cache hit"
    (1001 * List.length hit_path_cases)
    s.Serve.Engine.cache.Serve.Cache.hits

(* What the reactor does per cached request, less the decode: the
   engine's answer spliced into a connection's write buffer as a b1
   frame and as a JSON line.  No response string is built, so this
   allocates the key and little else. *)
let test_alloc_per_spliced_hit () =
  let e = make_engine () in
  let buf = Serve.Iobuf.create () in
  List.iter
    (fun (kind, body, _, _, splice_bound) ->
      let req = { Serve.Request.id = Some "h1"; body } in
      ignore (Serve.Engine.handle_decoded e req);
      let spliced framed =
        words_per_call (fun () ->
            Serve.Response.splice buf ~framed ~id:req.id (Serve.Engine.answer e req);
            Serve.Iobuf.consume buf (Serve.Iobuf.length buf))
      in
      List.iter
        (fun framed ->
          let words = spliced framed in
          if words > splice_bound then
            Alcotest.failf "a cached %s answer spliced as a %s allocates %.1f words (bound %.0f)"
              kind (if framed then "b1 frame" else "JSON line") words splice_bound)
        [ true; false ])
    hit_path_cases

let test_determinism_guard () =
  (* Two identically configured engines, one answering on one domain
     and one from four pool domains at once, must produce byte-identical
     response arrays: concurrent handlers share the cache without
     changing a byte. *)
  let lines =
    Array.init 40 (fun i ->
        match i mod 4 with
        | 0 ->
          Printf.sprintf
            "{\"schema\":\"htlc-serve/v1\",\"id\":\"i%d\",\"req\":\"success_rate\",\"p_star\":%g}"
            i (1.8 +. (0.01 *. float_of_int (i / 4)))
        | 1 ->
          Printf.sprintf
            "{\"schema\":\"htlc-serve/v1\",\"id\":\"i%d\",\"req\":\"cutoffs\",\"p_star\":2}"
            i
        | 2 ->
          Printf.sprintf
            "{\"schema\":\"htlc-serve/v1\",\"id\":\"i%d\",\"req\":\"quote\",\"mu\":0,\"sigma\":0.075,\"spot\":2}"
            i
        | _ -> Printf.sprintf "broken line %d" i)
  in
  let e1 = make_engine () in
  let e2 = make_engine () in
  let batch ~jobs e = Numerics.Pool.map_array ~jobs (Serve.Engine.handle e) lines in
  let r1 = batch ~jobs:1 e1 in
  let r2 = batch ~jobs:4 e2 in
  check_bool "jobs=1 and jobs=4 responses are byte-identical" true (r1 = r2);
  (* And a warm re-run (every answer cached) is still identical. *)
  let r3 = batch ~jobs:4 e1 in
  check_bool "cached responses are byte-identical too" true (r1 = r3)

(* --- crash absorption ------------------------------------------------------ *)

let sr_line id =
  Printf.sprintf
    "{\"schema\":\"htlc-serve/v1\",\"id\":\"%s\",\"req\":\"success_rate\",\"p_star\":2}"
    id

let test_health_request () =
  let e = make_engine () in
  let health = "{\"schema\":\"htlc-serve/v1\",\"id\":\"h\",\"req\":\"health\"}" in
  let resp = Serve.Engine.handle e health in
  List.iter
    (fun frag ->
      check_bool (Printf.sprintf "health reports %s" frag) true
        (contains resp frag))
    [
      "\"req\":\"health\",\"status\":\"ok\"";
      "\"result\":{\"internal_errors\":0,\"cache\":{\"entries\":0,";
    ];
  (* Health is live state: it must bypass the cache entirely. *)
  ignore (Serve.Engine.handle e health);
  let s = Serve.Engine.stats e in
  check_int "health is never cached (no hits)" 0
    s.Serve.Engine.cache.Serve.Cache.hits;
  check_int "health is never cached (no misses)" 0
    s.Serve.Engine.cache.Serve.Cache.misses

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let connection_errors () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "serve.connection_errors")

let test_crash_on_live_shard () =
  (* One shard serves both connections, so the crash happens on the
     very domain that owes the b1 connection its answers. *)
  let e = make_engine () in
  let reference = make_engine () in
  let path = Printf.sprintf "/tmp/htlc-serve-crash-%d.sock" (Unix.getpid ()) in
  let server = Serve.Server.listen e ~path ~shards:1 () in
  let errors_before = connection_errors () in
  let jfd, jic, joc = connect path in
  let bfd, bic, boc = connect path in
  output_string boc Serve.Binary.magic;
  let window tag =
    List.init 8 (fun i ->
        let body =
          match i mod 3 with
          | 0 ->
            Serve.Request.Success_rate
              {
                params = Swap.Params.defaults;
                p_star = 1.9 +. (0.05 *. float_of_int i);
                q = 0.;
              }
          | 1 -> Serve.Request.Quote { mu = 0.; sigma = 0.075; spot = 2. }
          | _ -> Serve.Request.Cutoffs { params = Swap.Params.defaults; p_star = 2. }
        in
        { Serve.Request.id = Some (Printf.sprintf "%s%d" tag i); body })
  in
  let send_window reqs =
    List.iter (fun r -> output_string boc (Serve.Binary.encode_request r)) reqs;
    flush boc
  in
  let check_window tag reqs =
    List.iteri
      (fun i r ->
        match Serve.Binary.input_frame bic with
        | Some body ->
          check_str
            (Printf.sprintf "b1 window %s #%d byte-identical" tag i)
            (Serve.Engine.handle_decoded reference r)
            body
        | None -> Alcotest.failf "b1 connection closed in window %s" tag)
      reqs
  in
  let ask line =
    output_string joc line;
    output_char joc '\n';
    flush joc;
    input_line jic
  in
  let before = window "before" in
  send_window before;
  check_window "before" before;
  (* This window is in flight on the shard while the handler crashes. *)
  let around = window "around" in
  send_window around;
  Serve.Engine.inject_crash e ~id:"boom";
  let crashed = ask (sr_line "boom") in
  check_bool "crash answered internal_error" true
    (contains crashed "\"status\":\"error\",\"error\":\"internal_error\"");
  check_bool "crash response echoes the id and kind" true
    (contains crashed "\"id\":\"boom\",\"req\":\"success_rate\"");
  check_bool "crash response names the injected fault" true
    (contains crashed "injected handler crash");
  let next = sr_line "after-crash" in
  check_str "the crashed connection's next answer is byte-identical"
    (Serve.Engine.handle reference next)
    (ask next);
  check_window "around" around;
  let after = window "after" in
  send_window after;
  check_window "after" after;
  check_int "the crash cost no connection" errors_before (connection_errors ());
  check_int "one internal error" 1 (Serve.Engine.stats e).internal_errors;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ jfd; bfd ];
  Serve.Server.shutdown server

let test_crash_and_recover () =
  (* No domain dies on a crash any more, so nothing needs restarting:
     the engine must simply answer the crash and carry on, cycle after
     cycle, with the one-shot trigger armable again each time. *)
  let e = make_engine () in
  let reference = make_engine () in
  List.iteri
    (fun round id ->
      Serve.Engine.inject_crash e ~id;
      let resp = Serve.Engine.handle e (sr_line id) in
      check_bool "crash answered internal_error" true
        (contains resp "\"status\":\"error\",\"error\":\"internal_error\"");
      check_bool "crash response names the injected fault" true
        (contains resp "injected handler crash");
      check_bool "id echoed on the crash response" true
        (contains resp (Printf.sprintf "\"id\":\"%s\"" id));
      let next = sr_line (id ^ "-after") in
      check_str "engine still serves after the crash"
        (Serve.Engine.handle reference next)
        (Serve.Engine.handle e next);
      check_int "internal errors counted per crash" (round + 1)
        (Serve.Engine.stats e).internal_errors)
    [ "boom"; "boom-again" ]

let test_pipe_absorbs_crash () =
  (* The pipe transport runs each request on the caller's own domain:
     the poisoned line must come back as internal_error and the loop
     must go on to answer the rest of the script. *)
  let e = make_engine () in
  let reference = make_engine () in
  let lines = [ sr_line "warm"; sr_line "boom"; sr_line "after" ] in
  let tmp = Filename.temp_file "htlc-crash" ".script" in
  Out_channel.with_open_text tmp (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
  let out = Filename.temp_file "htlc-crash" ".out" in
  Serve.Engine.inject_crash e ~id:"boom";
  let served =
    In_channel.with_open_text tmp (fun ic ->
        Out_channel.with_open_text out (fun oc ->
            Serve.Server.serve_pipe e ic oc))
  in
  check_int "pipe loop survives the poisoned line" 3 served;
  (match In_channel.with_open_text out In_channel.input_lines with
  | [ warm; boom; after ] ->
    check_str "line before the crash byte-identical"
      (Serve.Engine.handle reference (List.nth lines 0))
      warm;
    check_bool "poisoned line answered internal_error" true
      (contains boom "\"id\":\"boom\",\"req\":\"success_rate\",\"status\":\"error\",\"error\":\"internal_error\"");
    check_str "line after the crash byte-identical"
      (Serve.Engine.handle reference (List.nth lines 2))
      after
  | got -> Alcotest.failf "expected 3 response lines, got %d" (List.length got));
  check_int "one internal error" 1 (Serve.Engine.stats e).internal_errors;
  Sys.remove tmp;
  Sys.remove out

(* --- shutdown -------------------------------------------------------------- *)

let test_server_shutdown_with_live_conn () =
  (* A connection mid-request when the server shuts down: shutdown must
     not hang, and the client sees EOF, not a stuck socket. *)
  let e = make_engine () in
  let path =
    Printf.sprintf "/tmp/htlc-serve-live-%d.sock" (Unix.getpid ())
  in
  let server = Serve.Server.listen e ~path () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let oc = Unix.out_channel_of_descr fd in
  (* Half a request: no newline, so it waits in the connection's read
     buffer on the shard. *)
  output_string oc "{\"schema\":\"htlc-serve";
  flush oc;
  Serve.Server.shutdown server;
  let ic = Unix.in_channel_of_descr fd in
  (* Depending on timing the forced shutdown surfaces as clean EOF or
     as a reset — either way the connection is over, not stuck. *)
  (match input_line ic with
  | line -> Alcotest.failf "expected EOF after shutdown, got %S" line
  | exception End_of_file -> ()
  | exception Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  check_bool "socket unlinked" false (Sys.file_exists path)

(* --- stale / live / non-socket paths -------------------------------------- *)

let test_listen_stale_and_live () =
  let e = make_engine () in
  let path =
    Printf.sprintf "/tmp/htlc-serve-stale-%d.sock" (Unix.getpid ())
  in
  (* A stale socket file: bound and listened once, then abandoned
     without unlink (a crashed server). *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.close dead;
  check_bool "stale socket file exists" true (Sys.file_exists path);
  let server = Serve.Server.listen e ~path () in
  check_bool "stale socket replaced atomically" true (Sys.file_exists path);
  (* A live server at the path: a second listen must refuse loudly. *)
  (match Serve.Server.listen e ~path () with
  | _ -> Alcotest.fail "listen over a live server must raise"
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
  Serve.Server.shutdown server;
  (* A non-socket file: never unlinked, clearly refused. *)
  let regular =
    Printf.sprintf "/tmp/htlc-serve-notsock-%d" (Unix.getpid ())
  in
  Out_channel.with_open_text regular (fun oc ->
      Out_channel.output_string oc "precious data\n");
  (match Serve.Server.listen e ~path:regular () with
  | _ -> Alcotest.fail "listen on a regular file must raise"
  | exception Unix.Unix_error (Unix.ENOTSOCK, _, _) -> ());
  check_bool "regular file untouched" true (Sys.file_exists regular);
  Sys.remove regular

let test_listen_rejects_zero_shards () =
  let path =
    Printf.sprintf "/tmp/htlc-serve-zero-%d.sock" (Unix.getpid ())
  in
  (match Serve.Server.listen (make_engine ()) ~path ~shards:0 () with
  | _ -> Alcotest.fail "listen ~shards:0 must raise"
  | exception Invalid_argument _ -> ());
  check_bool "no socket file left behind" false (Sys.file_exists path);
  check_bool "no temp socket left behind" false
    (Sys.file_exists (Printf.sprintf "%s.%d.tmp" path (Unix.getpid ())))

(* --- chaos + client ------------------------------------------------------- *)

let test_chaos_determinism () =
  let plan = Serve.Chaos.plan ~seed:11 () in
  let fates n p = List.init n (fun op -> Serve.Chaos.fate p ~op) in
  check_bool "fates are a pure function of (seed, op)" true
    (fates 200 plan = fates 200 (Serve.Chaos.plan ~seed:11 ()));
  check_bool "a different seed draws a different schedule" true
    (fates 200 plan <> fates 200 (Serve.Chaos.plan ~seed:12 ()));
  check_bool "derived streams differ from the base plan" true
    (fates 200 plan <> fates 200 (Serve.Chaos.for_stream plan ~stream:1));
  let faulty =
    List.filter (fun f -> f <> Serve.Chaos.Clean) (fates 200 plan)
  in
  check_bool "a 200-op schedule at full intensity injects faults" true
    (List.length faulty > 0);
  check_bool "zero intensity is a clean transport" true
    (List.for_all
       (fun f -> f = Serve.Chaos.Clean)
       (fates 200 (Serve.Chaos.plan ~seed:11 ~intensity:0. ())))

let test_chaos_pipe_script () =
  let lines = List.init 24 (fun i -> sr_line (Printf.sprintf "p%d" i)) in
  let plan = Serve.Chaos.plan ~seed:5 () in
  let script = Serve.Chaos.corrupt_script plan lines in
  check_str "script corruption is deterministic" script
    (Serve.Chaos.corrupt_script plan lines);
  let expected = Serve.Chaos.expected_pipe_responses plan lines in
  (* Feed the corrupted script through the real pipe transport and
     count answers: every surviving line gets exactly one response. *)
  let tmp = Filename.temp_file "htlc-chaos" ".script" in
  Out_channel.with_open_text tmp (fun oc ->
      Out_channel.output_string oc script);
  let out = Filename.temp_file "htlc-chaos" ".out" in
  let e = make_engine () in
  let served =
    In_channel.with_open_text tmp (fun ic ->
        Out_channel.with_open_text out (fun oc ->
            Serve.Server.serve_pipe e ic oc))
  in
  check_int "pipe answers every surviving line" expected served;
  let responses =
    In_channel.with_open_text out In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  check_int "one response line per served request" expected
    (List.length responses);
  Sys.remove tmp;
  Sys.remove out

let test_client_retries_through_chaos () =
  let e = make_engine () in
  let path =
    Printf.sprintf "/tmp/htlc-serve-chaos-%d.sock" (Unix.getpid ())
  in
  let server = Serve.Server.listen e ~path () in
  let reference = make_engine () in
  let plan = Serve.Chaos.plan ~seed:21 () in
  let client =
    Serve.Client.create
      ~dialer:(Serve.Chaos.wrap plan (Serve.Client.socket_dialer ~path))
      ~max_attempts:10 ~base_backoff_s:1e-4 ~max_backoff_s:0.01 ~seed:3 ()
  in
  let lines = List.init 40 (fun i -> sr_line (Printf.sprintf "c%d" i)) in
  List.iteri
    (fun i line ->
      match Serve.Client.call client line with
      | Ok resp ->
        check_str
          (Printf.sprintf "response %d byte-identical through faults" i)
          (Serve.Engine.handle reference line)
          resp
      | Error err ->
        Alcotest.failf "call %d failed: %s (%s after %d attempts)" i
          err.Serve.Client.message err.Serve.Client.code
          err.Serve.Client.attempts)
    lines;
  let s = Serve.Client.stats client in
  check_int "every call counted" 40 s.Serve.Client.calls;
  check_bool "the seeded schedule made the client retry" true
    (s.Serve.Client.retries > 0);
  check_bool "retries re-dialed" true (s.Serve.Client.reconnects > 0);
  check_int "no call ultimately failed" 0 s.Serve.Client.failures;
  Serve.Client.close client;
  Serve.Server.shutdown server

let test_client_deadline_and_unavailable () =
  (* No server at all: the client must fail fast and structured, never
     hang. *)
  let path = Printf.sprintf "/tmp/htlc-serve-nope-%d.sock" (Unix.getpid ()) in
  let c =
    Serve.Client.create ~path ~max_attempts:3 ~base_backoff_s:1e-4
      ~max_backoff_s:1e-3 ()
  in
  (match Serve.Client.call c (sr_line "x") with
  | Ok _ -> Alcotest.fail "call without a server must fail"
  | Error err ->
    check_str "attempts exhausted" "unavailable" err.Serve.Client.code;
    check_int "all attempts made" 3 err.Serve.Client.attempts);
  Serve.Client.close c;
  let c =
    Serve.Client.create ~path ~max_attempts:1000 ~base_backoff_s:0.02
      ~max_backoff_s:0.02 ~deadline_s:0.05 ()
  in
  let t0 = Obs.Monotonic.now_ns () in
  (match Serve.Client.call c (sr_line "y") with
  | Ok _ -> Alcotest.fail "call without a server must fail"
  | Error err ->
    check_str "deadline beats the attempt budget" "deadline_exceeded"
      err.Serve.Client.code);
  check_bool "deadline bounded the wall time" true
    (Obs.Monotonic.elapsed_s ~since_ns:t0 < 2.);
  Serve.Client.close c

(* --- socket transport ---------------------------------------------------- *)

let fd_limit_refusals () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "serve.connection_errors.fd_limit")

(* [select] cannot take an fd at or above FD_SETSIZE (1024), and one in
   a shard's set made every select there fail, ending the shard.  Linux
   reserves the fd an [accept] returns when the call starts to wait, so
   with the fd table filled after c0 is accepted, c1 lands on the
   reserved low fd and c2 above 1024: c2 must be refused (EOF, counted)
   while c0 and c1 keep their byte-identical answers.  The clients'
   own fds above 1024 are read with blocking reads under a receive
   timeout, never with select. *)
let test_fd_limit_refused () =
  let e = make_engine () and reference = make_engine () in
  let path = Printf.sprintf "/tmp/htlc-serve-fdlimit-%d.sock" (Unix.getpid ()) in
  let server = Serve.Server.listen e ~path ~shards:1 () in
  let open_conn () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
    Unix.connect fd (Unix.ADDR_UNIX path);
    (fd, Unix.in_channel_of_descr fd)
  in
  (* [None]: the server closed the connection (EPIPE or EOF) or stayed
     silent past the receive timeout. *)
  let ask (fd, ic) line =
    match Unix.write_substring fd (line ^ "\n") 0 (String.length line + 1) with
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> None
    | _ -> (
      match input_line ic with
      | resp -> Some resp
      | exception (End_of_file | Sys_error _) -> None)
  in
  let answered what conn id =
    let line = sr_line id in
    match ask conn line with
    | Some resp -> check_str what (Serve.Engine.handle reference line) resp
    | None -> Alcotest.failf "%s: no answer" what
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let fillers = ref [] in
  let conns = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (!conns @ !fillers @ [ null ]);
      Serve.Server.shutdown server)
  @@ fun () ->
  let c0 = open_conn () in
  conns := [ fst c0 ];
  answered "c0 before the table fills" c0 "c0-a";
  (* The accepter re-enters accept right after handing c0 over, before
     c0 could be answered; the pause makes sure it holds the next low
     fd. *)
  Unix.sleepf 0.3;
  let refused_before = fd_limit_refusals () in
  (try
     for _ = 1 to 1100 do
       fillers := Unix.dup null :: !fillers
     done
   with Unix.Unix_error (Unix.EMFILE, _, _) -> Alcotest.skip ());
  let c1 = open_conn () in
  let c2 = open_conn () in
  conns := fst c1 :: fst c2 :: !conns;
  answered "c1 on the reserved fd" c1 "c1-a";
  check_bool "c2, accepted above FD_SETSIZE, is refused" true
    (ask c2 (sr_line "c2-a") = None);
  check_int "one refusal counted" (refused_before + 1) (fd_limit_refusals ());
  answered "c0 after the refusal" c0 "c0-b";
  answered "c1 after the refusal" c1 "c1-b"

let test_socket_roundtrip () =
  let e = make_engine () in
  let path = Printf.sprintf "/tmp/htlc-serve-test-%d.sock" (Unix.getpid ()) in
  let server = Serve.Server.listen e ~path () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let ask line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic
  in
  let lines =
    [
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"s1\",\"req\":\"success_rate\",\"p_star\":2}";
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"s2\",\"req\":\"quote\",\"mu\":0,\"sigma\":0.075,\"spot\":2}";
      "definitely not json";
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"s1\",\"req\":\"success_rate\",\"p_star\":2}";
    ]
  in
  (* The reference: an engine with the same configuration, answering
     the same lines directly. *)
  let reference = make_engine () in
  List.iteri
    (fun i line ->
      check_str
        (Printf.sprintf "socket response #%d is byte-identical to direct" i)
        (Serve.Engine.handle reference line)
        (ask line))
    lines;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Serve.Server.shutdown server;
  Serve.Server.shutdown server;
  (* Idempotent. *)
  check_bool "socket path unlinked on shutdown" false (Sys.file_exists path)

(* Both codecs at once on a two-shard reactor: four client domains, two
   speaking JSON and two b1, each pipelining windows of a corpus in
   which eight questions repeat, so hits and misses interleave across
   shards and codecs.  Every answer must equal a reference engine's
   direct one (ids differ per client, so a crossed answer shows), and
   the served engine must count every request sent. *)
let test_two_codecs_concurrent () =
  let e = make_engine () and reference = make_engine () in
  let path = Printf.sprintf "/tmp/htlc-serve-mixed-%d.sock" (Unix.getpid ()) in
  let server = Serve.Server.listen e ~path ~shards:2 () in
  let p = Swap.Params.defaults in
  let question i =
    let x = float_of_int (i / 4) in
    match i mod 4 with
    | 0 ->
      Serve.Request.Quote { mu = 0.; sigma = 0.06 +. (0.02 *. x); spot = 2. }
    | 1 -> Success_rate { params = p; p_star = 1.9 +. (0.2 *. x); q = 0. }
    | 2 -> Cutoffs { params = p; p_star = 2. +. (0.1 *. x) }
    | _ ->
      Sweep
        { params = p; q = 0.25; spec = { lo = 1.6; hi = 2.4 +. x; n = 5 } }
  in
  let per_client = 48 and window = 8 in
  let corpora =
    Array.init 4 (fun c ->
        Array.init per_client (fun j ->
            {
              Serve.Request.id = Some (Printf.sprintf "c%d-%d" c j);
              body = question (j * 5 mod 8);
            }))
  in
  let expected =
    Array.map (Array.map (Serve.Engine.handle_decoded reference)) corpora
  in
  let client c ~binary () =
    let reqs = corpora.(c) and want = expected.(c) in
    let fd, ic, oc = connect path in
    if binary then output_string oc Serve.Binary.magic;
    let wrong = ref 0 in
    (try
       for w = 0 to (per_client / window) - 1 do
         for j = w * window to ((w + 1) * window) - 1 do
           if binary then
             output_string oc (Serve.Binary.encode_request reqs.(j))
           else begin
             output_string oc (Serve.Request.encode reqs.(j));
             output_char oc '\n'
           end
         done;
         flush oc;
         for j = w * window to ((w + 1) * window) - 1 do
           let got =
             if binary then Serve.Binary.input_frame ic
             else In_channel.input_line ic
           in
           if got <> Some want.(j) then incr wrong
         done
       done
     with End_of_file | Sys_error _ -> wrong := per_client);
    (try Unix.close fd with Unix.Unix_error _ -> ());
    !wrong
  in
  let domains =
    List.map
      (fun (c, binary) -> Domain.spawn (client c ~binary))
      [ (0, false); (1, true); (2, false); (3, true) ]
  in
  let wrong = List.map Domain.join domains in
  Serve.Server.shutdown server;
  List.iteri
    (fun c n ->
      check_int
        (Printf.sprintf "client %d: answers that differ from direct" c)
        0 n)
    wrong;
  let s = Serve.Engine.stats e in
  check_int "every request counted" (4 * per_client) s.Serve.Engine.requests;
  check_int "every request looked up" (4 * per_client)
    (s.cache.Serve.Cache.hits + s.cache.Serve.Cache.misses);
  check_bool "hits and misses both occurred" true
    (s.cache.Serve.Cache.hits > 0 && s.cache.Serve.Cache.misses > 0)

(* --- quote table reasons -------------------------------------------------- *)

let test_quote_table_reasons () =
  let table = Market.Quote_table.build ~mus ~sigmas Swap.Params.defaults in
  (match Market.Quote_table.lookup table ~mu:0. ~sigma:0.075 ~spot:2. with
  | Ok q -> check_bool "in-grid quote positive" true (q.Market.Quote_table.p_star > 0.)
  | Error _ -> Alcotest.fail "in-grid lookup must quote");
  (match Market.Quote_table.lookup table ~mu:0.5 ~sigma:0.075 ~spot:2. with
  | Error Market.Quote_table.Outside_grid -> ()
  | _ -> Alcotest.fail "off-grid mu must report Outside_grid");
  (match Market.Quote_table.lookup table ~mu:0. ~sigma:0.075 ~spot:0. with
  | Error Market.Quote_table.Non_positive_spot -> ()
  | _ -> Alcotest.fail "zero spot must report Non_positive_spot");
  Array.iter
    (fun mu ->
      Array.iter
        (fun sigma ->
          check_bool "every grid node quotes" true
            (Result.is_ok (Market.Quote_table.lookup table ~mu ~sigma ~spot:2.)))
        sigmas)
    mus;
  check_bool "grid size" true (Market.Quote_table.nodes table = (2, 2))

(* --- telemetry ------------------------------------------------------------ *)

let with_sampling every f =
  let prev = Serve.Telemetry.sample_every () in
  Serve.Telemetry.set_sample_every every;
  Fun.protect ~finally:(fun () -> Serve.Telemetry.set_sample_every prev) f

let test_sampling_deterministic () =
  let ids = List.init 512 (fun i -> Some (Printf.sprintf "req-%d" i)) in
  with_sampling 4 (fun () ->
      let pick () = List.map Serve.Telemetry.should_sample_id ids in
      let base = pick () in
      check_bool "pure in the id: replay is identical" true (base = pick ());
      (* Shard-count invariance: the decision must not depend on
         the calling domain. *)
      Array.iter
        (fun got -> check_bool "same set from every domain" true (got = base))
        (Array.map Domain.join (Array.init 4 (fun _ -> Domain.spawn pick)));
      let n = List.length (List.filter Fun.id base) in
      check_bool "rate 4 selects some but not all" true (n > 0 && n < 512));
  with_sampling 1 (fun () ->
      check_bool "rate 1 samples everything" true
        (List.for_all Serve.Telemetry.should_sample_id ids
        && Serve.Telemetry.should_sample_id None));
  match Serve.Telemetry.set_sample_every 0 with
  | _ -> Alcotest.fail "rate < 1 must be rejected"
  | exception Invalid_argument _ -> ()

let test_byte_identity_with_telemetry () =
  let lines =
    [
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"t1\",\"req\":\"cutoffs\",\"p_star\":2}";
      sr_line "t2";
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"t3\",\"req\":\"quote\",\"mu\":0.01,\"sigma\":0.05,\"spot\":2}";
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"t4\",\"req\":\"sweep\",\"lo\":1.8,\"hi\":2.2,\"n\":3}";
      "not a request at all";
      sr_line "t2";
    ]
  in
  (* A fresh identically configured engine per run: cache state cannot
     leak between the instrumented and the bare pass. *)
  let run () =
    let e = make_engine () in
    let out =
      List.map
        (fun line ->
          let clock =
            Serve.Telemetry.make ~codec:"pipe"
              ~read_ns:(Serve.Telemetry.now_ns ())
          in
          let resp = Serve.Engine.handle ~clock e line in
          Serve.Telemetry.finish_now clock;
          resp)
        lines
    in
    out
  in
  let traced =
    with_sampling 1 (fun () ->
        Serve.Telemetry.set_enabled true;
        Obs.Trace.set_enabled true;
        Fun.protect
          ~finally:(fun () ->
            Obs.Trace.set_enabled false;
            Obs.Trace.clear ())
          run)
  in
  let bare =
    Serve.Telemetry.set_enabled false;
    Fun.protect ~finally:(fun () -> Serve.Telemetry.set_enabled true) run
  in
  List.iteri
    (fun i (a, b) ->
      check_str
        (Printf.sprintf "response #%d identical with telemetry on/off" i)
        b a)
    (List.combine traced bare)

let test_flight_recorder_dump () =
  Serve.Telemetry.set_recorder_capacity 16;
  Serve.Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Serve.Telemetry.set_recorder_capacity 512;
      Serve.Telemetry.reset ())
  @@ fun () ->
  with_sampling 1 @@ fun () ->
  let e = make_engine () in
  let input = Filename.temp_file "htlc-recorder" ".in" in
  let output = Filename.temp_file "htlc-recorder" ".out" in
  let dump = Filename.temp_file "htlc-recorder" ".jsonl" in
  Out_channel.with_open_text input (fun oc ->
      for i = 0 to 39 do
        output_string oc (sr_line (Printf.sprintf "fr%d" i));
        output_char oc '\n'
      done);
  let served =
    In_channel.with_open_text input (fun ic ->
        Out_channel.with_open_text output (fun oc ->
            Serve.Server.serve_pipe e ic oc))
  in
  check_int "all requests served" 40 served;
  check_int "every request was pushed" 40 (Serve.Telemetry.recorder_pushed ());
  check_int "ring holds its bound" 16 (Serve.Telemetry.recorder_recorded ());
  check_int "overwrites counted" 24 (Serve.Telemetry.recorder_dropped ());
  Out_channel.with_open_text dump
    (Serve.Telemetry.write_recorder ~reason:"unit-test");
  let lines =
    In_channel.with_open_text dump In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  check_int "header + one line per held record" 17 (List.length lines);
  let module J = Obs.Json_parse in
  let header = J.parse (List.hd lines) in
  let hnum key = J.as_num key (J.member "header" header key) in
  check_str "header schema" "htlc-obs/v1"
    (J.as_str "schema" (J.member "header" header "schema"));
  check_str "header type" "recorder"
    (J.as_str "type" (J.member "header" header "type"));
  check_str "header reason" "unit-test"
    (J.as_str "reason" (J.member "header" header "reason"));
  check_bool "header counts" true
    (hnum "capacity" = 16. && hnum "recorded" = 16. && hnum "pushed" = 40.
   && hnum "dropped" = 24.);
  let last_seq = ref (-1.) in
  List.iteri
    (fun i line ->
      let r = J.parse line in
      let path key = Printf.sprintf "record %d: %s" i key in
      check_str (path "type") "request"
        (J.as_str (path "type") (J.member (path "r") r "type"));
      check_str (path "kind") "success_rate"
        (J.as_str (path "kind") (J.member (path "r") r "kind"));
      check_str (path "codec") "pipe"
        (J.as_str (path "codec") (J.member (path "r") r "codec"));
      check_str (path "status") "ok"
        (J.as_str (path "status") (J.member (path "r") r "status"));
      (match J.member (path "r") r "sampled" with
      | J.Bool true -> ()
      | _ -> Alcotest.failf "record %d: must be sampled at rate 1" i);
      let seq = J.as_num (path "seq") (J.member (path "r") r "seq") in
      check_bool (path "seq ascending") true (seq > !last_seq);
      last_seq := seq;
      let stages =
        J.as_obj (path "stages") (J.member (path "r") r "stages")
      in
      check_bool (path "stages present") true
        (List.mem_assoc "total_ns" stages && List.mem_assoc "decode_ns" stages))
    (List.tl lines);
  check_bool "newest record survived" true (!last_seq = 39.);
  List.iter Sys.remove [ input; output; dump ]

let test_crash_dump () =
  let e = make_engine () in
  let dump = Filename.temp_file "htlc-crash" ".jsonl" in
  Serve.Telemetry.set_dump_path (Some dump);
  Fun.protect ~finally:(fun () -> Serve.Telemetry.set_dump_path None)
  @@ fun () ->
  ignore (Serve.Engine.handle e (sr_line "warm"));
  Serve.Engine.inject_crash e ~id:"dump-me";
  check_bool "the armed request crashes" true
    (contains
       (Serve.Engine.handle e (sr_line "dump-me"))
       "\"error\":\"internal_error\"");
  let module J = Obs.Json_parse in
  let header =
    match In_channel.with_open_text dump In_channel.input_line with
    | Some line -> J.parse line
    | None -> Alcotest.fail "the crash wrote no recorder dump"
  in
  let str key = J.as_str key (J.member "header" header key) in
  check_str "header schema" "htlc-obs/v1" (str "schema");
  check_str "header type" "recorder" (str "type");
  check_str "header reason" "handler_crash" (str "reason");
  check_bool "the crash is one-shot" true
    (contains (Serve.Engine.handle e (sr_line "dump-me")) "\"status\":\"ok\"");
  check_int "one internal error" 1 (Serve.Engine.stats e).internal_errors;
  Sys.remove dump

(* The finished-request counts of a stats body — [rate.total],
   [stages.total.count], [recorder.pushed] — and [rate.rps]. *)
let finished_counts resp =
  let module J = Obs.Json_parse in
  let r = J.member "response" (J.parse resp) "result" in
  let num path o key = J.as_num (path ^ "." ^ key) (J.member path o key) in
  let rate = J.member "result" r "rate" in
  let total = J.member "stages" (J.member "result" r "stages") "total" in
  let recorder = J.member "result" r "recorder" in
  ( ( int_of_float (num "rate" rate "total"),
      int_of_float (num "stages.total" total "count"),
      int_of_float (num "recorder" recorder "pushed") ),
    num "rate" rate "rps" )

let test_stats_request () =
  let e = make_engine () in
  let stats_line id =
    Printf.sprintf
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"%s\",\"req\":\"stats\"}" id
  in
  (* Through a real stage clock finished at flush, as a transport
     serves a request. *)
  let serve line =
    let clock =
      Serve.Telemetry.make ~codec:"pipe" ~read_ns:(Serve.Telemetry.now_ns ())
    in
    let resp = Serve.Engine.handle ~clock e line in
    Serve.Telemetry.finish_now clock;
    resp
  in
  ignore (serve (sr_line "warm"));
  let resp = serve (stats_line "st1") in
  check_bool "stats answers ok with the telemetry sections" true
    (contains resp "\"id\":\"st1\",\"req\":\"stats\",\"status\":\"ok\""
    && contains resp "\"latency\""
    && contains resp "\"stages\""
    && contains resp "\"recorder\""
    && contains resp "\"trace\"");
  (* Live state, never cached: a repeat must not hit the cache. *)
  let misses_before =
    (Serve.Engine.stats e).Serve.Engine.cache.Serve.Cache.misses
  in
  let hits_before =
    (Serve.Engine.stats e).Serve.Engine.cache.Serve.Cache.hits
  in
  ignore (serve (stats_line "st1"));
  let after = (Serve.Engine.stats e).Serve.Engine.cache in
  check_int "no cache miss recorded" misses_before after.Serve.Cache.misses;
  check_int "no cache hit recorded" hits_before after.Serve.Cache.hits;
  (* One recorder per fact: the rate is the total stage's histogram,
     so its total is that stage's count, and all three counts advance
     by the requests finished in between — st1 (finished after its
     body was built), its repeat, and five more. *)
  for i = 1 to 5 do
    ignore (serve (sr_line (Printf.sprintf "n%d" i)))
  done;
  let (rate1, stage1, pushed1), rps1 = finished_counts resp in
  let (rate2, stage2, pushed2), rps2 =
    finished_counts (serve (stats_line "st3"))
  in
  check_int "rate.total = stages.total.count" stage1 rate1;
  check_int "and in the later body" stage2 rate2;
  check_int "rate.total advances by the finished requests" 7 (rate2 - rate1);
  check_int "stages.total.count too" 7 (stage2 - stage1);
  check_int "recorder.pushed too" 7 (pushed2 - pushed1);
  List.iter
    (fun rps ->
      check_bool "rate.rps is finite and positive" true
        (Float.is_finite rps && rps > 0.))
    [ rps1; rps2 ];
  (* Both codecs carry the kind. *)
  let req = { Serve.Request.id = Some "st2"; body = Serve.Request.Stats } in
  check_str "canonical JSON roundtrip" (Serve.Request.encode req)
    (roundtrip (Serve.Request.encode req));
  match Serve.Binary.decode_payload (Serve.Binary.encode_payload req) with
  | Ok got ->
    check_bool "binary roundtrip preserves stats" true (got = req)
  | Error err -> Alcotest.failf "binary stats decode failed: %s" err.message

(* Each served-request fact has one recorder — the engine's and cache's
   exact counts, Telemetry's histograms and flight recorder — and
   nothing copies it into the global registry. *)
(* The cache stores each answer's status with its body: a cached error
   body ([invalid_params] for a sweep past the server's limit) served as
   a hit still records status "error" in the flight recorder, as the
   computed one did. *)
let test_cached_error_status () =
  Serve.Telemetry.reset ();
  let e = make_engine () in
  let line id =
    Printf.sprintf
      "{\"schema\":\"htlc-serve/v1\",\"id\":%S,\"req\":\"sweep\",\"lo\":1.6,\"hi\":2.4,\"n\":100000}"
      id
  in
  List.iter
    (fun id ->
      let clock = Serve.Telemetry.make ~codec:"pipe" ~read_ns:(Serve.Telemetry.now_ns ()) in
      let resp = Serve.Engine.handle ~clock e (line id) in
      Serve.Telemetry.finish_now clock;
      check_bool (id ^ " answered invalid_params") true
        (contains resp "\"error\":\"invalid_params\""))
    [ "computed"; "cached" ];
  check_int "the second answer was a hit" 1 (Serve.Engine.stats e).cache.hits;
  let dump = Filename.temp_file "htlc-cached-error" ".jsonl" in
  Out_channel.with_open_text dump (Serve.Telemetry.write_recorder ~reason:"unit-test");
  let records =
    In_channel.with_open_text dump In_channel.input_lines
    |> List.tl
    |> List.map Obs.Json_parse.parse
  in
  Sys.remove dump;
  let field r key = Obs.Json_parse.(as_str key (member "record" r key)) in
  let seen =
    List.map (fun r -> (field r "id", field r "cache", field r "status")) records
  in
  check
    Alcotest.(list (triple string string string))
    "both recorded as errors, one computed and one from the cache"
    [ ("computed", "miss", "error"); ("cached", "hit", "error") ]
    seen

let test_no_registry_copies () =
  let e = Serve.Engine.create ~mus ~sigmas ~cache_shards:1 ~cache_capacity:1 () in
  List.iter
    (fun line -> ignore (Serve.Engine.handle e line))
    [ sr_line "c1"; sr_line "c1"; "not a request";
      "{\"schema\":\"htlc-serve/v1\",\"id\":\"c2\",\"req\":\"cutoffs\",\"p_star\":2}" ];
  let s = Serve.Engine.stats e in
  check_bool "the engine counted the traffic" true
    (s.requests = 3 && s.parse_errors = 1 && s.cache.Serve.Cache.hits = 1
    && s.cache.Serve.Cache.evictions = 1);
  let snap = Obs.Metrics.snapshot () in
  let names =
    List.map fst snap.counters @ List.map fst snap.gauges
    @ List.map fst snap.histograms
  in
  List.iter
    (fun name ->
      check_bool (name ^ " is not in the registry") false
        (List.mem name names))
    ([ "serve.requests"; "serve.ok"; "serve.errors"; "serve.parse_errors";
       "serve.internal_errors"; "serve.cache.hits"; "serve.cache.misses";
       "serve.cache.evictions"; "serve.connection_requests";
       "serve.telemetry.requests"; "serve.handle_latency_s" ]
    @ List.map
        (fun k -> "serve.req." ^ k)
        [ "cutoffs"; "success_rate"; "sweep"; "quote"; "health"; "stats";
          "route" ])

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          Alcotest.test_case "golden encodings" `Quick test_codec_golden;
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "error taxonomy" `Quick test_codec_errors;
          Alcotest.test_case "fast/slow path agreement" `Quick
            test_decode_fastpath_agreement;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:
              (Random.State.make [| 22 |]
              [@lint.allow
                nondet_random
                  "a private state made from a fixed seed, not the global \
                   RNG: QCheck draws from a Random.State, and this one \
                   makes every run draw the same pairs"])
            key_property;
        ] );
      ( "binary",
        [
          Alcotest.test_case "golden vectors" `Quick test_binary_golden;
          Alcotest.test_case "roundtrip" `Quick test_binary_roundtrip;
          Alcotest.test_case "error taxonomy" `Quick test_binary_errors;
          Alcotest.test_case "incremental framing" `Quick
            test_binary_incremental;
          Alcotest.test_case "socket + torn frames" `Quick
            test_binary_socket_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss/incumbent" `Quick test_cache_hit_miss;
          Alcotest.test_case "second chance" `Quick test_cache_second_chance;
          Alcotest.test_case "capacity bound" `Quick test_cache_capacity_bound;
          Alcotest.test_case "concurrent readers and writer" `Quick
            test_cache_concurrent;
        ] );
      ( "engine",
        [
          Alcotest.test_case "handle + dispatch" `Quick test_engine_handle;
          Alcotest.test_case "cache identity" `Quick test_engine_cache_identity;
          Alcotest.test_case "route kind" `Quick test_engine_route;
          Alcotest.test_case "jobs invariance" `Quick test_determinism_guard;
        ] );
      ( "iobuf",
        [
          Alcotest.test_case "splice matches assemble" `Quick
            test_splice_matches_assemble;
          Alcotest.test_case "index scans the live span" `Quick test_iobuf_index;
        ] );
      ( "serve",
        [
          Alcotest.test_case "allocation per cache hit" `Quick test_alloc_per_hit;
          Alcotest.test_case "allocation per spliced cache hit" `Quick
            test_alloc_per_spliced_hit;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "crash on a live shard" `Quick
            test_crash_on_live_shard;
          Alcotest.test_case "crash + restart" `Quick test_crash_and_recover;
          Alcotest.test_case "health request" `Quick test_health_request;
          Alcotest.test_case "pump absorbs crash" `Quick
            test_pipe_absorbs_crash;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "live connection" `Quick
            test_server_shutdown_with_live_conn;
        ] );
      ( "listen",
        [
          Alcotest.test_case "stale/live/non-socket" `Quick
            test_listen_stale_and_live;
          Alcotest.test_case "zero shards binds nothing" `Quick
            test_listen_rejects_zero_shards;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "fate determinism" `Quick test_chaos_determinism;
          Alcotest.test_case "pipe script" `Quick test_chaos_pipe_script;
          Alcotest.test_case "client retries" `Quick
            test_client_retries_through_chaos;
          Alcotest.test_case "client failure modes" `Quick
            test_client_deadline_and_unavailable;
        ] );
      ( "transport",
        [
          Alcotest.test_case "socket roundtrip" `Quick test_socket_roundtrip;
          Alcotest.test_case "fd above FD_SETSIZE refused" `Quick
            test_fd_limit_refused;
          Alcotest.test_case "two codecs, four clients, two shards" `Quick
            test_two_codecs_concurrent;
        ] );
      ( "quote-table",
        [ Alcotest.test_case "reasons + gaps" `Quick test_quote_table_reasons ] );
      ( "telemetry",
        [
          Alcotest.test_case "deterministic sampling" `Quick
            test_sampling_deterministic;
          Alcotest.test_case "byte identity on/off" `Quick
            test_byte_identity_with_telemetry;
          Alcotest.test_case "flight-recorder dump" `Quick
            test_flight_recorder_dump;
          Alcotest.test_case "crash dump" `Quick test_crash_dump;
          Alcotest.test_case "stats request kind" `Quick test_stats_request;
          Alcotest.test_case "no registry copies" `Quick
            test_no_registry_copies;
          Alcotest.test_case "cached error keeps its status" `Quick
            test_cached_error_status;
        ] );
    ]
