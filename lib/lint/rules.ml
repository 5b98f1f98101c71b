(* The rule implementations: one parse of the file with the compiler's
   own frontend (compiler-libs), then a single Ast_iterator pass for the
   expression-level rules plus a shallow structure walk for the
   toplevel-state rule.

   R1  nondet_random / nondet_clock / hashtbl_order — nondeterminism
       sources: the global Random outside Numerics.Rng, wall-clock
       reads outside Obs.Monotonic, and hash-order iteration on the
       deterministic MC/serve paths.
   R2  shared_state — refs/Hashtbls/queues allocated at module toplevel
       in Pool-reachable libraries, unless the module also uses a
       Mutex/Atomic (the guard convention) or carries a justified
       suppression.
   R3  catch_all — `with _ ->` handlers that swallow exceptions (the
       Pool propagation contract forwards the lowest-chunk exception;
       swallowing breaks it silently).
   R4  output — print_*/Printf.printf/prerr_* in libraries: stdout
       belongs to the serve codec and the renderers; a library returns
       strings or writes to a channel its caller owns.
   R5  missing_mli lives in Driver (it needs the file set, not an AST).

   Suppressions: [@lint.allow rule "justification"] on an expression,
   [@@lint.allow ...] on a definition, [@@@lint.allow ...] floating at
   the top of a module (whole file).  The justification string is
   mandatory and must be non-blank; a malformed annotation is itself an
   error (bad_suppression), and an annotation that matches no finding
   is a warning (unused_suppression) so stale allowances cannot
   accumulate.

   The file is parsed exactly once: [scan] returns the raw findings
   *and* the collected suppression table, and {!Driver} owns applying
   the table — the deep (interprocedural) pass consumes the same table
   for its own findings and for neutralising taint sources, so a
   [--deep] run never re-parses a source the syntactic pass already
   walked. *)

open Parsetree

type suppression = {
  s_rule : string;
  s_line : int; (* the annotation's own line, for unused reports *)
  s_col : int;
  lo : int;
  hi : int; (* line span the suppression covers *)
  mutable used : bool;
}

let loc_line (loc : Location.t) = loc.loc_start.pos_lnum
let loc_col (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

(* Drop the Stdlib prefix so `Stdlib.Random.int` and `Random.int` match
   the same rule. *)
let ident_path (lid : Longident.t) =
  match Longident.flatten lid with "Stdlib" :: rest -> rest | l -> l

let stdout_idents =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_int";
    "prerr_float"; "prerr_bytes";
  ]

(* Toplevel allocations that create shared mutable state.  Indirect
   allocation through a helper (`let cache = make_cache ()`) is not
   caught — this is a syntactic lint, and the module-level Mutex/Atomic
   guard check below is what actually carries the contract. *)
let alloc_idents =
  [
    ([ "ref" ], "ref");
    ([ "Hashtbl"; "create" ], "Hashtbl.create");
    ([ "Queue"; "create" ], "Queue.create");
    ([ "Buffer"; "create" ], "Buffer.create");
    ([ "Array"; "make" ], "Array.make");
    ([ "Bytes"; "create" ], "Bytes.create");
  ]

(* --- suppression annotations ------------------------------------------- *)

(* [@lint.allow rule "justification"] — payload is the application of a
   lowercase rule ident to one string literal. *)
let parse_allow_payload (attr : attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ( {
                  pexp_desc =
                    Pexp_apply
                      ( { pexp_desc = Pexp_ident { txt = Lident rule; _ }; _ },
                        [
                          ( Nolabel,
                            {
                              pexp_desc =
                                Pexp_constant (Pconst_string (just, _, _));
                              _;
                            } );
                        ] );
                  _;
                },
                _ );
          _;
        };
      ] ->
    if not (List.mem rule Finding.suppressible_rules) then
      Error (Printf.sprintf "unknown rule %S in [@lint.allow]" rule)
    else if String.trim just = "" then
      Error
        (Printf.sprintf
           "suppression of %S needs a non-blank justification string" rule)
    else Ok (rule, just)
  | _ ->
    Error
      "malformed [@lint.allow]: expected `[@lint.allow rule \
       \"justification\"]`"

(* --- the checker --------------------------------------------------------- *)

let scan ~(config : Config.t) ~path ~source =
  let npath = Config.normalize path in
  let findings = ref [] in
  let suppressions = ref [] in
  let add ~loc ~rule ~severity message =
    findings :=
      {
        Finding.file = npath;
        line = loc_line loc;
        col = loc_col loc;
        rule;
        severity;
        message;
        chain = [];
      }
      :: !findings
  in
  let in_deterministic = Config.in_any config.deterministic_prefixes npath in
  let in_pool = Config.in_any config.pool_prefixes npath in
  let in_output = Config.in_any config.output_prefixes npath in
  let random_ok = Config.allowed_file config.random_allowed npath in
  let clock_ok = Config.allowed_file config.clock_allowed npath in
  match
    let lexbuf = Lexing.from_string source in
    Location.init lexbuf path;
    Parse.implementation lexbuf
  with
  | exception Syntaxerr.Error err ->
    let loc = Syntaxerr.location_of_error err in
    add ~loc ~rule:"syntax" ~severity:Finding.Error
      "file does not parse; the determinism rules cannot run";
    (List.rev !findings, [])
  | exception exn ->
    add ~loc:Location.none ~rule:"syntax" ~severity:Finding.Error
      (Printf.sprintf "file does not parse: %s" (Printexc.to_string exn));
    (List.rev !findings, [])
  | structure ->
    (* Pass 0: does this module use a Mutex or Atomic anywhere?  That is
       the guard convention for toplevel shared state. *)
    let module_guarded = ref false in
    let guard_it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_ident { txt; _ } -> (
              match ident_path txt with
              | ("Mutex" | "Atomic") :: _ -> module_guarded := true
              | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.expr self e);
      }
    in
    guard_it.structure guard_it structure;
    (* Collect a suppression for every [lint.allow] attribute; [host]
       is the syntax node the annotation covers. *)
    let add_suppression ~(host : Location.t) (attr : attribute) =
      if attr.attr_name.txt = "lint.allow" then
        match parse_allow_payload attr with
        | Ok (rule, _justification) ->
          suppressions :=
            {
              s_rule = rule;
              s_line = loc_line attr.attr_loc;
              s_col = loc_col attr.attr_loc;
              lo = host.loc_start.pos_lnum;
              hi = host.loc_end.pos_lnum;
              used = false;
            }
            :: !suppressions
        | Error msg ->
          add ~loc:attr.attr_loc ~rule:"bad_suppression"
            ~severity:Finding.Error msg
    in
    let whole_file =
      {
        Location.none with
        loc_start = { Lexing.dummy_pos with pos_lnum = 1 };
        loc_end = { Lexing.dummy_pos with pos_lnum = max_int };
      }
    in
    (* Pass 1: expression-level rules + attribute collection. *)
    let check_ident loc lid =
      match ident_path lid with
      | "Random" :: fn :: _ when not random_ok ->
        let message =
          if fn = "self_init" then
            "Random.self_init seeds from the environment and breaks \
             run-to-run determinism; construct a seeded Numerics.Rng instead"
          else
            Printf.sprintf
              "Random.%s uses the shared global RNG; draw from a seeded \
               Numerics.Rng stream instead"
              fn
        in
        add ~loc ~rule:"nondet_random" ~severity:Finding.Error message
      | ([ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] | [ "Sys"; "time" ])
        when not clock_ok ->
        add ~loc ~rule:"nondet_clock" ~severity:Finding.Error
          "wall-clock read outside Obs.Monotonic; route timing through \
           Obs.Monotonic.now_ns so readings stay monotonic and \
           mockable"
      | [ "Hashtbl"; (("iter" | "fold") as fn) ] ->
        let severity =
          if in_deterministic then Finding.Error else Finding.Warning
        in
        add ~loc ~rule:"hashtbl_order" ~severity
          (Printf.sprintf
             "Hashtbl.%s visits bindings in hash order, which is not a \
              stable public order; sort the keys first (or suppress with a \
              justification if the use is order-insensitive)"
             fn)
      | [ f ] when in_output && List.mem f stdout_idents ->
        add ~loc ~rule:"output" ~severity:Finding.Error
          (Printf.sprintf
             "%s in a library: stdout belongs to the serve codec and the \
              renderers; return strings (or write to a caller-owned \
              channel) and let binaries own the process streams"
             f)
      | [ ("Printf" | "Format"); (("printf" | "eprintf") as fn) ]
        when in_output ->
        add ~loc ~rule:"output" ~severity:Finding.Error
          (Printf.sprintf
             "%s in a library: return strings (or write to a caller-owned \
              channel) and let binaries own the process streams"
             fn)
      | _ -> ()
    in
    let main_it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            List.iter (add_suppression ~host:e.pexp_loc) e.pexp_attributes;
            (match e.pexp_desc with
            | Pexp_ident { txt; loc } -> check_ident loc txt
            | Pexp_try (_, cases) ->
              List.iter
                (fun c ->
                  match c.pc_lhs.ppat_desc with
                  | Ppat_any ->
                    let severity =
                      if in_pool then Finding.Error else Finding.Warning
                    in
                    add ~loc:c.pc_lhs.ppat_loc ~rule:"catch_all" ~severity
                      "catch-all `with _ ->` swallows exceptions the Pool \
                       contract must propagate; match the exceptions you \
                       mean to absorb"
                  | _ -> ())
                cases
            | _ -> ());
            Ast_iterator.default_iterator.expr self e);
        value_binding =
          (fun self vb ->
            List.iter (add_suppression ~host:vb.pvb_loc) vb.pvb_attributes;
            Ast_iterator.default_iterator.value_binding self vb);
        structure_item =
          (fun self item ->
            (match item.pstr_desc with
            | Pstr_attribute attr -> add_suppression ~host:whole_file attr
            | _ -> ());
            Ast_iterator.default_iterator.structure_item self item);
      }
    in
    main_it.structure main_it structure;
    (* Pass 2: toplevel shared state (R2).  Walk each toplevel binding's
       right-hand side, but never descend into function bodies — state
       allocated per call is not shared. *)
    let binding_allocs vb =
      let allocs = ref [] in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun self e ->
              match e.pexp_desc with
              | Pexp_fun _ | Pexp_function _ -> ()
              | Pexp_apply
                  ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
                (match
                   List.assoc_opt (ident_path txt) alloc_idents
                 with
                | Some name -> allocs := (name, e.pexp_loc) :: !allocs
                | None -> ());
                Ast_iterator.default_iterator.expr self e)
              | _ -> Ast_iterator.default_iterator.expr self e);
        }
      in
      it.expr it vb.pvb_expr;
      List.rev !allocs
    in
    let rec scan_toplevel items =
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                List.iter
                  (fun (name, loc) ->
                    add ~loc ~rule:"shared_state" ~severity:Finding.Error
                      (Printf.sprintf
                         "toplevel %s in a Pool-reachable library with no \
                          Mutex/Atomic in this module; guard it or move it \
                          into per-call state"
                         name))
                  (binding_allocs vb))
              vbs
          | Pstr_module
              { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
            scan_toplevel sub
          | _ -> ())
        items
    in
    if in_pool && not !module_guarded then scan_toplevel structure;
    (List.rev !findings, List.rev !suppressions)

(* --- applying a suppression table ---------------------------------------- *)

(* Drop findings covered by a matching allowance (marking it used) and
   count them.  Shared by the syntactic and deep passes: a deep finding
   is anchored at its sink / blocking call / access site, so the same
   line-span match applies. *)
let apply findings suppressions =
  let suppressed = ref 0 in
  let kept =
    List.filter
      (fun (f : Finding.t) ->
        let matched =
          List.exists
            (fun s ->
              if s.s_rule = f.rule && f.line >= s.lo && f.line <= s.hi then (
                s.used <- true;
                true)
              else false)
            suppressions
        in
        if matched then incr suppressed;
        not matched)
      findings
  in
  (kept, !suppressed)

(* A suppression at (file, line) for [rule] — the deep pass asks this
   to neutralise taint sources at their definition site ([nondet_*] /
   [hashtbl_order] allowances vouch for the op, not just the syntactic
   finding). *)
let covers suppressions ~line ~rule =
  List.exists
    (fun s ->
      if s.s_rule = rule && line >= s.lo && line <= s.hi then (
        s.used <- true;
        true)
      else false)
    suppressions

(* Stale-allowance report.  Suppressions naming deep-only rules are
   exempt when the deep pass did not run: a syntactic-only run cannot
   tell whether they are earning their keep. *)
let unused_report ~path ~deep_ran suppressions =
  let npath = Config.normalize path in
  List.filter_map
    (fun s ->
      if s.used then None
      else if (not deep_ran) && List.mem s.s_rule Finding.deep_only_rules then
        None
      else
        Some
          {
            Finding.file = npath;
            line = s.s_line;
            col = s.s_col;
            rule = "unused_suppression";
            severity = Finding.Warning;
            message =
              Printf.sprintf
                "[@lint.allow %s] matched no finding; remove it so \
                 allowances cannot go stale"
                s.s_rule;
            chain = [];
          })
    suppressions

let check ~(config : Config.t) ~path ~source =
  let raw, suppressions = scan ~config ~path ~source in
  let kept, suppressed = apply raw suppressions in
  let unused = unused_report ~path ~deep_ran:false suppressions in
  (List.sort Finding.compare_finding (kept @ unused), suppressed)
