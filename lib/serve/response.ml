(* Response encoding for htlc-serve/v1.

   A response is assembled from an id-independent *body* — everything
   after the "id" field — so the result cache can store one body per
   canonical request and splice in each caller's id without recomputing.
   Splicing is deterministic, which preserves the service's byte-identity
   contract: cached and freshly computed responses for the same (id,
   request) pair are the same bytes.

   One assembler, [write], lays the response out: the schema prefix, the
   id as a JSON literal, a comma, the body.  [splice] runs it in place
   in a connection's write buffer, as a JSON line or a b1 frame whose
   length prefix is summed from the same pieces; [assemble] runs it into
   a string of exactly the response's size. *)

module J = Obs.Json

let cat = String.concat ""

let ok_body ~req ~result =
  cat [ "\"req\":"; J.str req; ",\"status\":\"ok\",\"result\":"; result; "}" ]

let error_body ?req ~code ~message () =
  cat
    [
      (match req with Some r -> cat [ "\"req\":"; J.str r; "," ] | None -> "");
      "\"status\":\"error\",\"error\":"; J.str code; ",\"message\":";
      J.str message; "}";
    ]

let id_prefix = "{\"schema\":" ^ J.str Request.schema ^ ",\"id\":"

let length ~id body =
  String.length id_prefix
  + (match id with Some s -> J.str_length s | None -> 4)
  + 1 + String.length body

(* The one assembler: writes the [length ~id body] bytes of the response
   into [b] at [off]. *)
let write b off ~id body =
  let n = String.length id_prefix in
  Bytes.blit_string id_prefix 0 b off n;
  let o =
    match id with
    | Some s -> J.blit_str s b (off + n)
    | None ->
      Bytes.blit_string "null" 0 b (off + n) 4;
      off + n + 4
  in
  Bytes.unsafe_set b o ',';
  Bytes.blit_string body 0 b (o + 1) (String.length body)

let assemble ~id body =
  let b = Bytes.create (length ~id body) in
  write b 0 ~id body;
  Bytes.unsafe_to_string b

let splice buf ~framed ~id body =
  let n = length ~id body in
  if framed then begin
    if n > Binary.max_frame then
      invalid_arg "Response.splice: response exceeds Binary.max_frame";
    let at = Iobuf.extend buf (4 + n) in
    let b = Iobuf.storage buf in
    Bytes.unsafe_set b at (Char.unsafe_chr (n lsr 24));
    Bytes.unsafe_set b (at + 1) (Char.unsafe_chr ((n lsr 16) land 0xff));
    Bytes.unsafe_set b (at + 2) (Char.unsafe_chr ((n lsr 8) land 0xff));
    Bytes.unsafe_set b (at + 3) (Char.unsafe_chr (n land 0xff));
    write b (at + 4) ~id body
  end
  else begin
    let at = Iobuf.extend buf (n + 1) in
    let b = Iobuf.storage buf in
    write b at ~id body;
    Bytes.unsafe_set b (at + n) '\n'
  end

(* --- result payload helpers --------------------------------------------- *)

let interval_json = function
  | Some (lo, hi) -> Printf.sprintf "[%s,%s]" (J.num lo) (J.num hi)
  | None -> "null"

let float_array_json xs =
  let b = Buffer.create (16 * Array.length xs) in
  Buffer.add_char b '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (J.num x))
    xs;
  Buffer.add_char b ']';
  Buffer.contents b
