(* The htlc-lint rule set, driven against inline fixture sources
   (string-parsed — no tempfile I/O): each rule's positive and negative
   cases, the scoping that turns rules on/off by path, the suppression
   annotation round-trip (including the mandatory justification), the
   golden htlc-lint/v1 and v2 renderings, and clean-repo integration
   checks over the real lib/ tree — syntactic and deep (the deep pass
   reads the .cmt typedtrees the build produced; the dune deps order
   cmt production first).

   The deep suite also drives the whole-program pass end to end over
   the compiled half of bench/lint_fixture: cross-module taint,
   hot-path blocking, and cross-unit lock findings with their chains
   pinned, the justified deep suppression counted, and byte-identical
   findings across repeated runs.

   Over the whole build tree, the call graph is the dead-code check:
   every lib/ binding must be reachable from an entry point, or be
   listed in [unreached_allowlist] with the reason it stays. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

(* Findings for [src] attributed to [path]; default path puts the
   fixture on the strictest (lib/) scope. *)
let lint ?(path = "lib/swap/fixture.ml") src =
  fst (Lint.Driver.check_source ~path src)

let suppressed ?(path = "lib/swap/fixture.ml") src =
  snd (Lint.Driver.check_source ~path src)

let rules fs = List.map (fun (f : Lint.Finding.t) -> f.rule) fs

let severity_of rule fs =
  match
    List.find_opt (fun (f : Lint.Finding.t) -> f.rule = rule) fs
  with
  | Some f -> Lint.Finding.severity_to_string f.severity
  | None -> Alcotest.failf "no %s finding" rule

(* --- R1: nondeterminism sources ------------------------------------------ *)

let test_nondet_random () =
  let fs = lint "let f () = Random.self_init ()\nlet g n = Random.int n\n" in
  check_int "both Random uses flagged" 2 (List.length fs);
  check_bool "rule id" true
    (List.for_all (fun r -> r = "nondet_random") (rules fs));
  check_str "error severity" "error" (severity_of "nondet_random" fs);
  (* Stdlib-qualified spelling is the same rule. *)
  check_int "Stdlib.Random counts too" 1
    (List.length (lint "let g n = Stdlib.Random.int n\n"));
  (* The RNG implementation itself is the one allowed home. *)
  check_int "allowed inside Numerics.Rng" 0
    (List.length
       (lint ~path:"lib/numerics/rng.ml" "let g n = Random.int n\n"))

let test_nondet_clock () =
  let fs =
    lint
      "let a () = Unix.gettimeofday ()\n\
       let b () = Unix.time ()\n\
       let c () = Sys.time ()\n"
  in
  check_int "all three clock reads flagged" 3 (List.length fs);
  check_bool "rule id" true
    (List.for_all (fun r -> r = "nondet_clock") (rules fs));
  check_int "allowed inside Obs.Monotonic" 0
    (List.length
       (lint ~path:"lib/obs/monotonic.ml" "let a () = Unix.gettimeofday ()\n"))

let test_hashtbl_order () =
  let src = "let f t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n" in
  check_str "error on the deterministic (lib/) paths" "error"
    (severity_of "hashtbl_order" (lint src));
  check_str "warning elsewhere" "warning"
    (severity_of "hashtbl_order" (lint ~path:"bench/helper.ml" src));
  check_int "Hashtbl.find_opt is not order-sensitive" 0
    (List.length (lint "let f t k = Hashtbl.find_opt t k\n"))

(* --- R2: domain-safety of shared state ----------------------------------- *)

let test_shared_state () =
  let unguarded = "let cache : (string, int) Hashtbl.t = Hashtbl.create 8\n" in
  check_str "unguarded toplevel Hashtbl is an error" "error"
    (severity_of "shared_state" (lint unguarded));
  check_str "unguarded toplevel ref too" "error"
    (severity_of "shared_state" (lint "let hits = ref 0\n"));
  (* A Mutex (or Atomic) anywhere in the module is the guard convention. *)
  check_int "mutex in the module counts as guarded" 0
    (List.length
       (lint
          "let lock = Mutex.create ()\n\
           let cache : (string, int) Hashtbl.t = Hashtbl.create 8\n\
           let get k = Mutex.lock lock; let r = Hashtbl.find_opt cache k in\n\
           \  Mutex.unlock lock; r\n"));
  check_int "atomics are their own guard" 0
    (List.length (lint "let count = Atomic.make 0\n"));
  (* Allocation under a function happens per call — not shared. *)
  check_int "per-call state is fine" 0
    (List.length (lint "let f () = let acc = ref 0 in incr acc; !acc\n"));
  (* Outside the Pool-reachable prefixes the rule is off. *)
  check_int "scoped to lib/" 0
    (List.length (lint ~path:"bench/helper.ml" unguarded))

(* --- R3 / R4: exception and output hygiene ------------------------------- *)

let test_catch_all () =
  let src = "let f g = try g () with _ -> 0\n" in
  check_str "catch-all in lib/ is an error" "error"
    (severity_of "catch_all" (lint src));
  check_str "a warning outside" "warning"
    (severity_of "catch_all" (lint ~path:"examples/demo.ml" src));
  check_int "named exceptions are fine" 0
    (List.length (lint "let f g = try g () with Not_found -> 0\n"))

let test_output () =
  let fs =
    lint "let f () = print_endline \"x\"\nlet g () = Printf.printf \"y\"\n"
  in
  check_int "both prints flagged" 2 (List.length fs);
  check_str "error severity" "error" (severity_of "output" fs);
  check_int "binaries own their stdout" 0
    (List.length
       (lint ~path:"bin/tool.ml" "let f () = print_endline \"x\"\n"));
  check_int "sprintf builds strings, no finding" 0
    (List.length (lint "let f x = Printf.sprintf \"%d\" x\n"))

(* --- suppressions --------------------------------------------------------- *)

let test_suppression_roundtrip () =
  (* Binding-level [@@lint.allow] with a justification: finding gone,
     counted as suppressed, nothing else emitted. *)
  let src =
    "let f t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n\
     [@@lint.allow hashtbl_order \"result sorted by the caller\"]\n"
  in
  check_int "suppressed finding is dropped" 0 (List.length (lint src));
  check_int "and counted" 1 (suppressed src);
  (* Module-level [@@@lint.allow] covers the whole file. *)
  let src =
    "[@@@lint.allow hashtbl_order \"order-insensitive module\"]\n\
     let f t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n\
     let g t = Hashtbl.iter (fun _ _ -> ()) t\n"
  in
  check_int "module-level allowance covers both" 0 (List.length (lint src));
  check_int "both counted" 2 (suppressed src);
  (* Expression-level [@lint.allow] covers just that expression. *)
  let src =
    "let f t u =\n\
     \  let a = (Hashtbl.fold (fun k _ acc -> k :: acc) t [] [@lint.allow \
     hashtbl_order \"sorted next line\"]) in\n\
     \  let b = Hashtbl.fold (fun k _ acc -> k :: acc) u [] in\n\
     \  (List.sort compare a, b)\n"
  in
  let fs = lint src in
  check_int "only the annotated expression is excused" 1 (List.length fs);
  check_str "the other one still fires" "hashtbl_order" (List.hd fs).rule

let test_suppression_hygiene () =
  (* No justification string -> the annotation itself is an error and
     the finding it would have covered still fires. *)
  let fs =
    lint
      "let f t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n\
       [@@lint.allow hashtbl_order]\n"
  in
  check_bool "bad_suppression emitted" true
    (List.mem "bad_suppression" (rules fs));
  check_bool "original finding survives" true
    (List.mem "hashtbl_order" (rules fs));
  (* Unknown rule names are rejected, not silently inert. *)
  check_bool "unknown rule is a bad_suppression" true
    (List.mem "bad_suppression"
       (rules (lint "let x = 1 [@@lint.allow frobnicate \"whatever\"]\n")));
  (* Blank justification is no justification. *)
  check_bool "blank justification rejected" true
    (List.mem "bad_suppression"
       (rules (lint "let x = 1 [@@lint.allow output \"  \"]\n")));
  (* An allowance that matches nothing must rot visibly. *)
  let fs = lint "let x = 1 [@@lint.allow output \"nothing to allow\"]\n" in
  check_bool "unused_suppression emitted" true
    (List.mem "unused_suppression" (rules fs));
  check_str "as a warning" "warning" (severity_of "unused_suppression" fs)

(* --- parse failures ------------------------------------------------------- *)

let test_syntax_error () =
  let fs = lint "let f = (\n" in
  check_int "one finding" 1 (List.length fs);
  check_str "syntax rule" "syntax" (List.hd fs).rule;
  check_str "error severity" "error" (severity_of "syntax" fs)

(* --- golden htlc-lint/v1 rendering ---------------------------------------- *)

let test_json_golden () =
  let result =
    {
      Lint.Driver.findings =
        [
          {
            Lint.Finding.file = "lib/a.ml";
            line = 3;
            col = 4;
            rule = "output";
            severity = Lint.Finding.Error;
            message = "say \"no\"";
            chain = [];
          };
          {
            Lint.Finding.file = "lib/b.ml";
            line = 9;
            col = 0;
            rule = "unused_suppression";
            severity = Lint.Finding.Warning;
            message = "stale";
            chain = [];
          };
        ];
      files_scanned = 5;
      suppressed = 1;
      wall_s = 0.25;
      deep = None;
    }
  in
  check_str "golden document"
    ("{\"schema\":\"htlc-lint/v1\",\"type\":\"lint\",\"files_scanned\":5,"
   ^ "\"wall_s\":0.25,\"summary\":{\"errors\":1,\"warnings\":1,"
   ^ "\"suppressed\":1,\"by_rule\":{\"output\":1,\"unused_suppression\":1}},"
   ^ "\"findings\":[{\"file\":\"lib/a.ml\",\"line\":3,\"col\":4,"
   ^ "\"rule\":\"output\",\"severity\":\"error\",\"message\":\"say \\\"no\\\"\"},"
   ^ "{\"file\":\"lib/b.ml\",\"line\":9,\"col\":0,"
   ^ "\"rule\":\"unused_suppression\",\"severity\":\"warning\","
   ^ "\"message\":\"stale\"}]}")
    (Lint.Driver.render_json result);
  check_int "exit code gates on errors only" 1
    (Lint.Driver.exit_code result);
  (* The emitted document must satisfy the strict parser it will be
     validated with (round trip through Obs.Json_parse). *)
  match Obs.Json_parse.parse (Lint.Driver.render_json result) with
  | _ -> ()
  | exception Obs.Json_parse.Bad msg ->
    Alcotest.failf "render_json does not re-parse: %s" msg

let test_json_v2_golden () =
  (* With a deep summary present the document switches to htlc-lint/v2:
     a "deep" section after wall_s and a chain array on every finding
     (empty for syntactic ones). *)
  let result =
    {
      Lint.Driver.findings =
        [
          {
            Lint.Finding.file = "deep/keyer.ml";
            line = 8;
            col = 0;
            rule = "deep_taint";
            severity = Lint.Finding.Error;
            message = "leaks";
            chain =
              [
                { Lint.Finding.sym = "K.key"; file = "deep/keyer.ml"; line = 8 };
                { Lint.Finding.sym = "Unix.gettimeofday";
                  file = "deep/feed.ml"; line = 6 };
              ];
          };
        ];
      files_scanned = 2;
      suppressed = 0;
      wall_s = 0.5;
      deep = Some { cmt_files = 7; nodes = 10; edges = 9; deep_wall_s = 0.25 };
    }
  in
  check_str "golden v2 document"
    ("{\"schema\":\"htlc-lint/v2\",\"type\":\"lint\",\"files_scanned\":2,"
   ^ "\"wall_s\":0.5,\"deep\":{\"cmt_files\":7,\"nodes\":10,\"edges\":9,"
   ^ "\"wall_s\":0.25},\"summary\":{\"errors\":1,\"warnings\":0,"
   ^ "\"suppressed\":0,\"by_rule\":{\"deep_taint\":1}},"
   ^ "\"findings\":[{\"file\":\"deep/keyer.ml\",\"line\":8,\"col\":0,"
   ^ "\"rule\":\"deep_taint\",\"severity\":\"error\",\"message\":\"leaks\","
   ^ "\"chain\":[{\"symbol\":\"K.key\",\"file\":\"deep/keyer.ml\",\"line\":8},"
   ^ "{\"symbol\":\"Unix.gettimeofday\",\"file\":\"deep/feed.ml\","
   ^ "\"line\":6}]}]}")
    (Lint.Driver.render_json result);
  match Obs.Json_parse.parse (Lint.Driver.render_json result) with
  | _ -> ()
  | exception Obs.Json_parse.Bad msg ->
    Alcotest.failf "render_json (v2) does not re-parse: %s" msg

(* --- the deep pass over the compiled fixture ------------------------------ *)

(* Under [dune runtest] the cwd is [_build/default/test]; the fixture
   tree and its cmts sit one level up under bench/. *)
let fixture_root = "../bench/lint_fixture"
let fixture_cmts = "../bench/lint_fixture/deep"

let run_fixture_deep () =
  Lint.Driver.run ~deep:true ~cmt_root:fixture_cmts ~roots:[ fixture_root ] ()

let find_rule rule (r : Lint.Driver.result) =
  match
    List.find_opt (fun (f : Lint.Finding.t) -> f.rule = rule) r.findings
  with
  | Some f -> f
  | None -> Alcotest.failf "no %s finding in the fixture run" rule

let test_deep_fixture_findings () =
  let r = run_fixture_deep () in
  (* The cross-module taint chain, pinned end to end. *)
  let taint = find_rule "deep_taint" r in
  check_str "taint anchors at the sink" "deep/keyer.ml" taint.file;
  check_str "taint chain"
    ("Lint_fixture_deep.Keyer.cache_key (deep/keyer.ml:8) -> "
   ^ "Lint_fixture_deep.Feed.stamp (deep/feed.ml:7) -> "
   ^ "Lint_fixture_deep.Feed.jitter (deep/feed.ml:6) -> "
   ^ "Unix.gettimeofday (deep/feed.ml:6)")
    (Lint.Finding.chain_to_string taint.chain);
  (* The hot-path blocking chain. *)
  let blocking = find_rule "deep_blocking" r in
  check_str "blocking anchors at the call site" "deep/nap.ml" blocking.file;
  check_str "blocking chain"
    ("Lint_fixture_deep.Pump.loop (deep/pump.ml:6) -> "
   ^ "Lint_fixture_deep.Nap.rest (deep/nap.ml:4) -> "
   ^ "Unix.sleep (deep/nap.ml:4)")
    (Lint.Finding.chain_to_string blocking.chain);
  (* The cross-unit lock violation: access frame, then definition. *)
  let lock = find_rule "deep_lock" r in
  check_str "lock anchors at the access site" "deep/prober.ml" lock.file;
  check_str "lock chain"
    ("Lint_fixture_deep.Prober.census (deep/prober.ml:5) -> "
   ^ "Lint_fixture_deep.Registry.table (deep/registry.ml:7)")
    (Lint.Finding.chain_to_string lock.chain);
  (* Keyer.salted_key stages the same taint under a justified allowance:
     it must be gone from the findings and counted — the deep
     suppression round-trip (on top of the syntactic one in lib/). *)
  check_int "exactly one taint sink survives" 1
    (List.length
       (List.filter (fun (f : Lint.Finding.t) -> f.rule = "deep_taint")
          r.findings));
  check_int "syntactic + deep suppressions counted" 2 r.suppressed;
  (* The deep summary reflects the compiled fixture. *)
  match r.deep with
  | None -> Alcotest.fail "deep summary missing"
  | Some d ->
    check_bool "all fixture cmts loaded" true (d.cmt_files >= 6);
    check_bool "nodes collected" true (d.nodes >= 8);
    check_bool "cross-module edges found" true (d.edges >= 3)

let test_deep_determinism () =
  (* Byte-identical findings across repeated runs: same files, same
     order, same chains, same rendered bytes. *)
  let render (r : Lint.Driver.result) =
    String.concat "\n" (List.map Lint.Finding.to_json_v2 r.findings)
  in
  let a = run_fixture_deep () and b = run_fixture_deep () in
  check_str "repeated deep runs render identically" (render a) (render b)

let test_deep_only_suppression_dormant () =
  (* A nondet_domain allowance neutralises a *deep* taint source, so a
     syntactic-only run must not report it stale — it cannot tell. *)
  let src =
    "let shard () = (Domain.self () :> int) land 7\n\
     [@@lint.allow nondet_domain \"striped counter, sums commute\"]\n"
  in
  check_int "no unused_suppression from a syntactic-only run" 0
    (List.length (lint src));
  (* An allowance for a syntactic rule still rots visibly. *)
  check_bool "syntactic allowances still age" true
    (List.mem "unused_suppression"
       (rules (lint "let x = 1 [@@lint.allow output \"stale\"]\n")))

(* --- the call graph over the real lib/ tree ------------------------------- *)

let test_callgraph_structure () =
  let graph = Lint.Callgraph.build ~cmt_root:"../lib" () in
  check_bool "every lib unit loaded" true (graph.cmt_files > 50);
  check_bool "module-level bindings collected" true
    (List.length graph.nodes > 300);
  check_bool "cross-module references resolved" true (graph.edges > 500);
  check_int "no unreadable cmts" 0 (List.length graph.load_notes);
  (* Spot-check the naming scheme on known bindings. *)
  List.iter
    (fun id ->
      match Lint.Callgraph.find graph id with
      | Some _ -> ()
      | None -> Alcotest.failf "expected %s in the call graph" id)
    [ "Serve.Reactor.process"; "Obs.Metrics.incr"; "Numerics.Pool.map_chunks" ];
  check_str "wrapped names display dotted" "Serve.Reactor"
    (Lint.Callgraph.display_modname "Serve__Reactor");
  check_str "executables drop the Dune__exe prefix" "Main"
    (Lint.Callgraph.display_modname "Dune__exe__Main");
  (* Sorted node ids = deterministic traversal base. *)
  let ids = List.map (fun (n : Lint.Callgraph.node) -> n.id) graph.nodes in
  check_bool "nodes sorted by id" true (List.sort compare ids = ids)

(* Calls made through a module alias ([module M = Obs.Metrics],
   [module P = Obs.Json_parse]) resolve to the aliased module's
   bindings. *)
let test_callgraph_aliases () =
  let graph = Lint.Callgraph.build ~cmt_root:"../lib" () in
  List.iter
    (fun (src, dst) ->
      match Lint.Callgraph.find graph src with
      | None -> Alcotest.failf "expected %s in the call graph" src
      | Some n ->
        check_bool (src ^ " -> " ^ dst) true
          (List.exists
             (fun ((m : Lint.Callgraph.node), _) -> m.id = dst)
             (Lint.Callgraph.succs graph n)))
    [
      ("Serve.Telemetry.view", "Obs.Metrics.hist_view");
      ("Serve.Request.decode", "Obs.Json_parse.parse");
    ]

let test_repo_deep_lints_clean () =
  (* The real gate is @lint-deep over the whole tree; this pins the
     library half: the taint, hot-path, and lock analyses all run and
     everything they flag is covered by the documented nondet_domain
     allowance (striped metrics cells) — which neutralises sources
     without inflating the suppressed count. *)
  let result =
    Lint.Driver.run ~deep:true ~cmt_root:"../lib" ~roots:[ "../lib" ] ()
  in
  List.iter
    (fun (f : Lint.Finding.t) ->
      Printf.eprintf "unexpected: %s\n" (Lint.Finding.to_line f))
    result.findings;
  check_int "no unsuppressed findings in lib/ under --deep" 0
    (List.length result.findings);
  check_int "still exactly the one syntactic suppression" 1
    result.suppressed;
  match result.deep with
  | None -> Alcotest.fail "deep summary missing"
  | Some d -> check_bool "the deep pass saw the tree" true (d.nodes > 300)

(* --- clean-repo integration ----------------------------------------------- *)

let test_repo_lints_clean () =
  (* The real gate is the @lint alias over the whole tree; this pins the
     library half from inside the test sandbox: zero unsuppressed
     findings, and the justified metrics-registry suppression accounted
     for. *)
  (* Under [dune runtest] the cwd is [_build/default/test] and the
     (source_tree ../lib) dep puts the sources one level up; a direct
     [dune exec] from the repo root sees [lib] instead. *)
  let root = if Sys.file_exists "../lib" then "../lib" else "lib" in
  let result = Lint.Driver.run ~roots:[ root ] () in
  List.iter
    (fun (f : Lint.Finding.t) ->
      Printf.eprintf "unexpected: %s\n" (Lint.Finding.to_line f))
    result.Lint.Driver.findings;
  check_int "no unsuppressed findings in lib/" 0
    (List.length result.Lint.Driver.findings);
  check_bool "a real tree was scanned" true
    (result.Lint.Driver.files_scanned > 100);
  check_int "exactly the one justified suppression" 1
    result.Lint.Driver.suppressed

(* --- dead code: reachability over the whole build tree -------------------- *)

(* The entry points: every binding of the executables, the bench
   drivers, the benchmark and the examples, and every toplevel
   initializer in lib/ ([let () = ...], e.g. Numerics.Pool's
   [at_exit]), which runs whenever its unit is linked.  Tests are not
   entry points: code only a test reaches is dead. *)
let is_entry_point (n : Lint.Callgraph.node) =
  Lint.Config.in_any [ "bin/"; "bench/"; "perfbench/"; "examples/" ] n.file
  || Lint.Config.in_any [ "lib/" ] n.file
     && String.starts_with ~prefix:"_init_L" n.name

(* The lib/ bindings no entry point reaches, each with the reason it
   stays: a seam through which a test reads or sets live state, or an
   oracle a test checks live code against.  A binding that only its
   own test uses is deleted with that test instead. *)
let unreached_allowlist =
  [
    ( "Gametree.Game.validate",
      "oracle: test_protocol checks the live Lattice_game trees with it" );
    ( "Lint.Driver.check_source",
      "seam: lints an in-memory source through the same Rules.scan and \
       Rules.apply that Driver.run applies to files" );
    ("Lint.Rules.check", "seam: the scan-and-apply step check_source calls");
    ("Numerics.Pool.stats", "seam: reads the pool's live task and chunk counters");
    ( "Obs.Metrics.hist_shards",
      "seam: reads how many per-domain shards a live histogram holds" );
    ( "Obs.Metrics.relative_error",
      "oracle: the 1/64 bound test_obs checks live histogram quantiles \
       against" );
    ( "Obs.Metrics.set_enabled",
      "seam: turns the live registry off to show that results are \
       bit-identical with metrics on and off" );
    ("Obs.Trace.clear", "seam: empties the live span ring between tests");
    ( "Obs.Trace.set_capacity",
      "seam: shrinks the live span ring so a test can overflow it and \
       read the drop count" );
    ( "Serve.Chaos.corrupt_script",
      "seam: applies the live fault plan's fates to a script for the \
       pipe-transport chaos test" );
    ( "Serve.Chaos.expected_pipe_responses",
      "seam: counts the script lines that survive those fates" );
    ( "Serve.Chaos.pipe_fate",
      "seam: maps one live Chaos.fate onto a pipe line for the two above" );
    ( "Stochastic.Jump_diffusion.expectation",
      "oracle: the closed-form mean test_stochastic checks the live \
       Jump_diffusion.sample against" );
    ( "Swap.Cutoff.cache_sizes",
      "seam: reads the live memo caches' sizes (the eviction bound)" );
    ( "Swap.Relationship.run",
      "seam: one seeded relationship of the simulation mean_totals \
       averages; tests read how it ended" );
    ( "Swap.Utility.b_t3_stop",
      "oracle: Eq. 17, the integrand test_swap's quadrature checks the \
       live Eq. 21 closed form against" );
  ]

(* Under [dune runtest] the cwd is [_build/default/test]; the
   (alias_rec ../check) dep has put the cmts of every directory
   under "..".  Built once for the two checks below. *)
let whole_graph = lazy (Lint.Callgraph.build ~cmt_root:".." ())

let test_unreached_allowlist () =
  let graph = Lazy.force whole_graph in
  check_int "no unreadable cmts" 0 (List.length graph.load_notes);
  let reached =
    Lint.Reach.reachable graph (List.filter is_entry_point graph.nodes)
  in
  let unreached =
    List.filter_map
      (fun (n : Lint.Callgraph.node) ->
        if Lint.Config.in_any [ "lib/" ] n.file && not (Hashtbl.mem reached n.id)
        then Some n.id
        else None)
      graph.nodes
  in
  let allowed = List.map fst unreached_allowlist in
  let missing = List.filter (fun id -> not (List.mem id allowed)) unreached in
  let stale = List.filter (fun id -> not (List.mem id unreached)) allowed in
  List.iter
    (fun id ->
      Printf.eprintf
        "unreached from every entry point (delete it, or allowlist it with \
         a reason): %s\n"
        id)
    missing;
  List.iter
    (fun id -> Printf.eprintf "allowlisted but reached (drop the entry): %s\n" id)
    stale;
  check_int "every unreached lib/ binding is allowlisted" 0
    (List.length missing);
  check_int "every allowlist entry is still unreached" 0 (List.length stale)

(* --- doc references: every named lib/ binding exists ---------------------- *)

(* The docs a reader navigates the code by; the (deps) of this test
   copy them next to the build tree. *)
let doc_files = [ "docs/paper_map.md"; "DESIGN.md"; "README.md" ]

(* The text of every inline code span of a Markdown file, fenced blocks
   skipped (a span may wrap a line). *)
let code_spans file =
  let lines = In_channel.with_open_text file In_channel.input_lines in
  let in_fence = ref false in
  let prose =
    List.filter
      (fun l ->
        if String.starts_with ~prefix:"```" (String.trim l) then begin
          in_fence := not !in_fence;
          false
        end
        else not !in_fence)
      lines
  in
  List.filteri
    (fun i _ -> i mod 2 = 1)
    (String.split_on_char '`' (String.concat "\n" prose))

let is_upper c = c >= 'A' && c <= 'Z'

(* A span that is exactly a dotted path with a capitalised head
   ([Module.value], [Library.Module], [Library.Module.value]), split
   into its components. *)
let dotted_path span =
  let ident p =
    p <> ""
    && (match p.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
           | _ -> false)
         p
  in
  match String.split_on_char '.' span with
  | (head :: _ :: _) as parts when List.for_all ident parts && is_upper head.[0]
    ->
    Some parts
  | _ -> None

(* Top-level type names a compilation unit's source declares: a [Rng.t]
   or [Chain.receipt] in the docs names a type, which the call graph
   (values only) does not hold. *)
let declared_types file =
  In_channel.with_open_text ("../" ^ file) (fun ic ->
      List.concat_map
        (fun (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Pstr_type (_, decls) ->
            List.map
              (fun (d : Parsetree.type_declaration) -> d.ptype_name.txt)
              decls
          | _ -> [])
        (Parse.implementation (Lexing.from_channel ic)))

(* The commands of swap_cli's group, read from its own help: under
   COMMANDS each entry's first line is indented seven columns and starts
   with the command's name; the next unindented line ends the section.
   The (deps) of this test build the binary next to the build tree. *)
let swap_cli_commands () =
  let ic =
    Unix.open_process_args_in "../bin/swap_cli.exe"
      [| "swap_cli"; "--help=plain" |]
  in
  let lines = In_channel.input_lines ic in
  ignore (Unix.close_process_in ic);
  let rec commands = function
    | "COMMANDS" :: rest -> entries rest
    | _ :: rest -> commands rest
    | [] -> []
  and entries = function
    | l :: _ when l <> "" && l.[0] <> ' ' -> []
    | l :: rest
      when String.length l > 7
           && String.starts_with ~prefix:"       " l
           && l.[7] <> ' ' ->
      List.hd (String.split_on_char ' ' (String.sub l 7 (String.length l - 7)))
      :: entries rest
    | _ :: rest -> entries rest
    | [] -> []
  in
  commands lines

(* A span that runs `swap_cli` with a word after it (across a line
   break too) names the command that word must be. *)
let cli_command span =
  match
    String.split_on_char ' '
      (String.map (function '\n' | '\t' -> ' ' | c -> c) span)
    |> List.filter (( <> ) "")
  with
  | "swap_cli" :: command :: _ -> Some command
  | _ -> None

(* A reference whose head names a lib/ library or module must resolve
   in the lib/ half of the call graph: [Library.Module] to a unit,
   [Module.value] to a binding (or type) of some unit of that name,
   [Library.Module.value] to one of that unit.  Any other head — the
   stdlib, a test or bench module, a file name — is not checked.  A
   span that runs `swap_cli` must name one of its commands. *)
let test_doc_references () =
  let graph = Lazy.force whole_graph in
  let lib_nodes =
    List.filter
      (fun (n : Lint.Callgraph.node) -> Lint.Config.in_any [ "lib/" ] n.file)
      graph.nodes
  in
  let unit_ids =
    List.sort_uniq compare
      (List.map (fun (n : Lint.Callgraph.node) -> n.unit_id) lib_nodes)
  in
  let library u = List.hd (String.split_on_char '.' u) in
  let modname u = List.nth (String.split_on_char '.' u) 1 in
  let unit_file u =
    (List.find (fun (n : Lint.Callgraph.node) -> n.unit_id = u) lib_nodes).file
  in
  let has_value u v =
    Hashtbl.mem graph.index (u ^ "." ^ v)
    || List.mem v (declared_types (unit_file u))
  in
  let resolves = function
    | [ lib; m ] when List.exists (fun u -> library u = lib) unit_ids ->
      Some (List.mem (lib ^ "." ^ m) unit_ids)
    | [ m; v ] when List.exists (fun u -> modname u = m) unit_ids ->
      if is_upper v.[0] then None (* a constructor or nested module *)
      else
        Some
          (List.exists (fun u -> modname u = m && has_value u v) unit_ids)
    | [ lib; m; v ] when List.exists (fun u -> library u = lib) unit_ids ->
      let u = lib ^ "." ^ m in
      Some (List.mem u unit_ids && has_value u v)
    | _ -> None
  in
  let spans = List.map (fun doc -> (doc, code_spans ("../" ^ doc))) doc_files in
  let failing ok =
    List.concat_map
      (fun (doc, spans) ->
        List.filter_map
          (fun span -> if ok span then None else Some (doc ^ ": " ^ span))
          spans)
      spans
  in
  let checked = ref 0 in
  let broken =
    failing (fun span ->
        match Option.bind (dotted_path span) resolves with
        | Some true ->
          incr checked;
          true
        | Some false -> false
        | None -> true)
  in
  List.iter (Printf.eprintf "names no lib/ binding or unit: %s\n") broken;
  check_bool "the docs name lib/ code at all" true (!checked > 100);
  check_int "every lib/ reference resolves" 0 (List.length broken);
  let commands = swap_cli_commands () in
  let runs = ref 0 in
  let unknown =
    failing (fun span ->
        match cli_command span with
        | Some c ->
          incr runs;
          List.mem c commands
        | None -> true)
  in
  List.iter (Printf.eprintf "names no swap_cli command: %s\n") unknown;
  check_bool "swap_cli lists its commands" true (List.length commands >= 10);
  check_bool "the docs run swap_cli commands at all" true (!runs > 10);
  check_int "every swap_cli command named exists" 0 (List.length unknown)

(* A build writes and deletes temporaries while a walk runs.  A dangling
   link stands in, deterministically, for an entry that vanished between
   [Sys.readdir] and the look at it: [Sys.is_directory] raises the same
   [Sys_error] on both.  Both walks must pass over it. *)
let test_walk_skips_vanished () =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "htlc-lint-walk-%d" (Unix.getpid ()))
  in
  let sub = Filename.concat root "sub" in
  let file path text = Out_channel.with_open_text path (fun oc -> output_string oc text) in
  let a = Filename.concat root "a.ml"
  and b = Filename.concat sub "b.mli"
  and cmt = Filename.concat sub "c.cmt"
  and gone = Filename.concat root "gone.cmxs.startup.o" in
  Sys.mkdir root 0o755;
  Sys.mkdir sub 0o755;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ a; b; cmt; gone ];
      List.iter (fun d -> try Sys.rmdir d with Sys_error _ -> ()) [ sub; root ])
  @@ fun () ->
  file a "let x = 1\n";
  file b "val y : int\n";
  file cmt "not a cmt";
  Unix.symlink (Filename.concat root "no-such-file") gone;
  check_bool "the dangling link makes Sys.is_directory raise" true
    (match Sys.is_directory gone with _ -> false | exception Sys_error _ -> true);
  let r = Lint.Driver.run ~deep:true ~cmt_root:root ~roots:[ root ] () in
  check_int "both sources scanned" 2 r.files_scanned;
  match r.deep with
  | Some d -> check_int "the cmt walk found the one cmt" 1 d.cmt_files
  | None -> Alcotest.fail "the deep pass ran"

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "nondet_random" `Quick test_nondet_random;
          Alcotest.test_case "nondet_clock" `Quick test_nondet_clock;
          Alcotest.test_case "hashtbl_order" `Quick test_hashtbl_order;
          Alcotest.test_case "shared_state" `Quick test_shared_state;
          Alcotest.test_case "catch_all" `Quick test_catch_all;
          Alcotest.test_case "output" `Quick test_output;
          Alcotest.test_case "syntax errors" `Quick test_syntax_error;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "round-trip" `Quick test_suppression_roundtrip;
          Alcotest.test_case "hygiene" `Quick test_suppression_hygiene;
        ] );
      ( "export",
        [
          Alcotest.test_case "htlc-lint/v1 golden" `Quick test_json_golden;
          Alcotest.test_case "htlc-lint/v2 golden" `Quick test_json_v2_golden;
        ] );
      ( "deep",
        [
          Alcotest.test_case "fixture chains" `Quick test_deep_fixture_findings;
          Alcotest.test_case "determinism" `Quick test_deep_determinism;
          Alcotest.test_case "deep-only suppressions dormant" `Quick
            test_deep_only_suppression_dormant;
          Alcotest.test_case "call graph structure" `Quick
            test_callgraph_structure;
          Alcotest.test_case "call graph resolves module aliases" `Quick
            test_callgraph_aliases;
        ] );
      ( "integration",
        [
          Alcotest.test_case "repo lib/ lints clean" `Quick
            test_repo_lints_clean;
          Alcotest.test_case "repo lib/ lints clean under --deep" `Quick
            test_repo_deep_lints_clean;
          Alcotest.test_case "every lib/ binding reached or allowlisted"
            `Quick test_unreached_allowlist;
          Alcotest.test_case "doc references resolve" `Quick
            test_doc_references;
          Alcotest.test_case "walks skip entries that vanish" `Quick
            test_walk_skips_vanished;
        ] );
    ]
