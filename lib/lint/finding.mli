(** A single lint finding and the rule-id vocabulary shared by the rule
    implementations, the [\[@lint.allow\]] suppression payloads, and the
    [htlc-lint/v1] / [htlc-lint/v2] exports. *)

type severity = Error | Warning

type frame = { sym : string; file : string; line : int }
(** One step of an interprocedural call chain: a symbol (the qualified
    binding id, e.g. ["Serve.Cache.find"], or the raw primitive at the
    end of a taint chain, e.g. ["Unix.gettimeofday"]) and where it
    lives. *)

type t = {
  file : string;
  line : int;  (** 1-based. *)
  col : int;  (** 0-based, matching compiler diagnostics. *)
  rule : string;  (** Stable rule id, e.g. ["nondet_random"]. *)
  severity : severity;
  message : string;
  chain : frame list;
      (** The justifying call path for deep (interprocedural) findings:
          sink-to-source for [deep_taint], root-to-blocking-call for
          [deep_blocking], access-site-to-definition for [deep_lock].
          Empty for syntactic findings. *)
}

val schema : string
(** ["htlc-lint/v1"] — stamped into syntactic-only documents. *)

val schema_v2 : string
(** ["htlc-lint/v2"] — the deep-pass document: v1 plus a ["deep"]
    summary section and a ["chain"] array on every finding. *)

val deep_rules : string list
(** The interprocedural finding rules: [deep_taint], [deep_blocking],
    [deep_lock]. *)

val deep_only_rules : string list
(** [deep_rules] plus [nondet_domain] (a source-site-only marker):
    suppressions naming these are exempt from the staleness check when
    the deep pass did not run. *)

val suppressible_rules : string list
(** Rule ids a [\[@lint.allow\]] annotation may name. *)

val severity_to_string : severity -> string

val compare_finding : t -> t -> int
(** Order by file, then line, then column, then rule, then message —
    a total, deterministic order over any finding set the tool emits. *)

val to_line : t -> string
(** One human-readable report line:
    [file:line:col: \[severity\] rule: message]. *)

val chain_to_string : frame list -> string
(** [sym (file:line) -> sym (file:line) -> ...] — the rendering used
    inside deep finding messages. *)

val to_json : t -> string
(** One v1 JSON object (no newline) with fixed field order
    [file,line,col,rule,severity,message].  The chain is dropped — v1
    consumers never see it. *)

val to_json_v2 : t -> string
(** The v2 object: v1's fields plus ["chain"] (always present, possibly
    empty) where each frame is [{"symbol":..,"file":..,"line":..}]. *)
