(** Whole-program call graph over the [.cmt] typedtrees dune produces.

    One node per module-level value binding, identified by its wrapped
    display path (["Serve.Reactor.process"]); edges are body mentions —
    resolved [Path.t]s for cross-module references (a path through a
    local [module M = ...] / [let module M = ... in] alias or a nested
    structure is rewritten onto the module it names), ident stamps for
    same-unit siblings.  "Mentions" over-approximates "calls" on
    purpose: a function passed to [List.iter] is reached just as surely
    as one applied directly, and the deep analyses want the loud side
    of that bet.

    Determinism contract: cmt files load in sorted path order,
    {!t.nodes} is sorted by id and {!succs} returns sorted, deduped
    adjacency, so every analysis over the graph is byte-identical
    across runs.

    Honest false negatives (see DESIGN.md §15): functor bodies and
    first-class modules are not expanded; calls through records of
    closures lose the target; externals are invisible. *)

type op = {
  op_path : string list;
      (** Qualified path with [Stdlib] dropped and library wrapping
          expanded, e.g. [["Unix"; "gettimeofday"]]. *)
  op_line : int;
}

type node = {
  id : string;  (** ["Serve.Reactor.process"]; shadowed earlier bindings
                    get ["...@L<line>"]. *)
  unit_id : string;  (** ["Serve.Reactor"] *)
  name : string;  (** ["process"] *)
  file : string;  (** Normalized source path, {!Config.normalize}d. *)
  line : int;  (** Definition line. *)
  refs : (string * int) list;
      (** Resolved mention -> first line, in body order; includes both
          in-graph ids and external paths. *)
  ops : op list;  (** Every qualified path the body mentions. *)
  alloc : string option;
      (** The allocator (["Hashtbl.create"], ["ref"], ...) if this
          binding creates toplevel mutable state at module init. *)
  guarded : bool;  (** Body mentions [Mutex.*] or [Atomic.*]. *)
}

type t = {
  nodes : node list;  (** Sorted by [id]. *)
  index : (string, node) Hashtbl.t;
  cmt_files : int;  (** How many [.cmt] files were discovered. *)
  edges : int;  (** References resolving to an in-graph node. *)
  load_notes : (string * string) list;
      (** (cmt path, reason) for every skipped or unreadable file —
          surfaced as [deep_load] warnings so a broken build cannot
          masquerade as a clean analysis. *)
}

val build : ?config:Config.t -> cmt_root:string -> unit -> t
(** Walk [cmt_root] (skipping {!Config.t.skip_dirs} basenames), read
    every [.cmt] implementation, and assemble the graph. *)

val find : t -> string -> node option

val succs : t -> node -> (node * int) list
(** In-graph successors with the line of the first mention, deduped and
    sorted by id. *)

val display_modname : string -> string
(** ["Serve__Reactor"] -> ["Serve.Reactor"]; ["Dune__exe__Main"] ->
    ["Main"].  Exposed for tests. *)
