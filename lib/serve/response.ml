(* Response encoding for htlc-serve/v1.

   A response is assembled from an id-independent *body* — everything
   after the "id" field — so the result cache can store one body per
   canonical request and splice in each caller's id without recomputing.
   Splicing is deterministic, which preserves the service's byte-identity
   contract: cached and freshly computed responses for the same (id,
   request) pair are the same bytes. *)

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

let assemble ~id body =
  cat [ id_prefix; (match id with Some s -> J.str s | None -> "null"); ","; body ]

(* Convenience for paths that never hit the cache (parse errors,
   shedding, deadlines). *)
let error ~id ?req ~code ~message () =
  assemble ~id (error_body ?req ~code ~message ())

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
