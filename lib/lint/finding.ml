(* A single lint finding: where, which rule, how bad, and why.  The
   rule ids here are the vocabulary shared by the rule implementations,
   the [@lint.allow] suppression payloads, the text report, and the
   htlc-lint/v1 / htlc-lint/v2 JSON documents (pinned by
   bench/validate_lint.ml).

   v2 (the --deep pass) extends every finding with a [chain]: the
   interprocedural call path that justifies the finding, sink-to-source
   for taint, hot-root-to-blocking-call for reachability, access-site-
   to-definition for lock discipline.  Syntactic findings carry an
   empty chain. *)

type severity = Error | Warning

type frame = { sym : string; file : string; line : int }

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : severity;
  message : string;
  chain : frame list;
}

let schema = "htlc-lint/v1"
let schema_v2 = "htlc-lint/v2"

(* Rules a [@lint.allow] annotation may name.  The meta rules
   (bad_suppression, unused_suppression, syntax failures, and cmt load
   notes) are not suppressible: an annotation that is itself broken
   cannot vouch for itself.

   The deep vocabulary: [nondet_domain] marks a Domain.self read as a
   benign nondeterminism source at its definition site (there is no
   syntactic producer for it — it only neutralises taint), and the
   [deep_*] rules suppress whole interprocedural findings at their
   anchor (the taint sink, the blocking call, the unguarded access). *)
let deep_rules = [ "deep_taint"; "deep_blocking"; "deep_lock" ]

(* Suppressions for these rules are only checked for staleness when the
   deep pass actually ran — a syntactic-only run cannot tell whether
   they are earning their keep. *)
let deep_only_rules = "nondet_domain" :: deep_rules

let suppressible_rules =
  [
    "nondet_random"; "nondet_clock"; "hashtbl_order"; "shared_state";
    "catch_all"; "output"; "missing_mli";
  ]
  @ deep_only_rules

let severity_to_string = function Error -> "error" | Warning -> "warning"

let compare_finding a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c
      else
        let c = compare a.rule b.rule in
        if c <> 0 then c else compare a.message b.message

let to_line f =
  Printf.sprintf "%s:%d:%d: [%s] %s: %s" f.file f.line f.col
    (severity_to_string f.severity)
    f.rule f.message

let frame_to_string fr = Printf.sprintf "%s (%s:%d)" fr.sym fr.file fr.line

let chain_to_string chain =
  String.concat " -> " (List.map frame_to_string chain)

let to_json f =
  Printf.sprintf
    "{\"file\":%s,\"line\":%s,\"col\":%s,\"rule\":%s,\"severity\":%s,\"message\":%s}"
    (Obs.Json.str f.file) (Obs.Json.int f.line) (Obs.Json.int f.col)
    (Obs.Json.str f.rule)
    (Obs.Json.str (severity_to_string f.severity))
    (Obs.Json.str f.message)

let frame_to_json fr =
  Printf.sprintf "{\"symbol\":%s,\"file\":%s,\"line\":%s}" (Obs.Json.str fr.sym)
    (Obs.Json.str fr.file) (Obs.Json.int fr.line)

let to_json_v2 f =
  Printf.sprintf
    "{\"file\":%s,\"line\":%s,\"col\":%s,\"rule\":%s,\"severity\":%s,\"message\":%s,\"chain\":[%s]}"
    (Obs.Json.str f.file) (Obs.Json.int f.line) (Obs.Json.int f.col)
    (Obs.Json.str f.rule)
    (Obs.Json.str (severity_to_string f.severity))
    (Obs.Json.str f.message)
    (String.concat "," (List.map frame_to_json f.chain))
