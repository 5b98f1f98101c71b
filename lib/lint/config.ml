(* Rule scoping: which paths each invariant applies to.  Matching is
   purely textual on normalized relative paths ("lib/obs/metrics.ml"),
   so the checker needs no knowledge of the dune build graph — the
   directory layout *is* the contract (lib/ holds the libraries the
   Pool workers and the serve engine reach; bin/bench/test/examples own
   their stdout and may time themselves).

   The deep (whole-program) pass shares the same normalized-path
   vocabulary: taint sinks and hot-path roots are named by (file
   prefix, binding-name prefix) pairs, so the analyses need no special
   knowledge of library wrapping or module aliases — the node's source
   file decides.  The "deep/" entries re-root the compiled fixture tree
   under bench/lint_fixture/deep (see {!normalize}): they can never
   match a real repo path, and they are what keeps the
   deep-pass-stays-live CI check honest. *)

type t = {
  random_allowed : string list;
      (* Path suffixes where Random.* is the RNG implementation itself. *)
  clock_allowed : string list;
      (* Path suffixes where wall-clock reads are the clock implementation. *)
  deterministic_prefixes : string list;
      (* Hashtbl.iter/fold is an error here (bit-identical MC/serve paths);
         a warning elsewhere. *)
  pool_prefixes : string list;
      (* Unguarded toplevel mutable state and catch-all handlers are
         errors here (code reachable from Numerics.Pool workers).  The
         deep lock-discipline analysis checks every toplevel mutable
         defined here against all its cross-module access sites. *)
  output_prefixes : string list;
      (* print_*/Printf.printf/prerr_* are errors here: stdout belongs to
         the serve codec and the renderers; libraries return strings or
         write to a caller-owned channel. *)
  mli_prefixes : string list; (* Every .ml here must ship a .mli ... *)
  mli_exempt : string list; (* ... except under these prefixes. *)
  skip_dirs : string list;
      (* Directory basenames the file walk never descends into. *)
  deep_sinks : (string * string) list;
      (* (file prefix, binding-name prefix) pairs naming deterministic
         sinks: functions whose output must be a pure function of their
         inputs.  A nondeterminism source reachable from one is a
         deep_taint error.  "" as name prefix covers the whole file. *)
  hot_roots : (string * string list) list;
      (* (file prefix, binding names) naming hot-path roots: code the
         reactor runs per connection, which must never reach a blocking
         syscall (deep_blocking).  [] as the name list covers every
         binding in the file. *)
}

let default =
  {
    random_allowed = [ "lib/numerics/rng.ml" ];
    clock_allowed = [ "lib/obs/monotonic.ml" ];
    deterministic_prefixes = [ "lib/"; "deep/" ];
    pool_prefixes = [ "lib/"; "deep/" ];
    output_prefixes = [ "lib/"; "deep/" ];
    mli_prefixes = [ "lib/" ];
    mli_exempt = [ "lib/experiments/" ];
    skip_dirs = [ "_build"; ".git"; "_opam"; "lint_fixture" ];
    deep_sinks =
      [
        (* Cached response bodies and the keys that address them: any
           nondeterminism here breaks the byte-identity contract. *)
        ("lib/serve/cache.ml", "");
        ("lib/serve/request.ml", "");
        ("lib/serve/response.ml", "");
        ("lib/serve/binary.ml", "");
        (* Monte-Carlo trial bodies: bit-identical at any jobs count. *)
        ("lib/swap/montecarlo.ml", "");
        ("lib/swapgraph/mc.ml", "");
        (* The bench baseline emitter: recorded JSON must be a pure
           function of the measured rows. *)
        ("bench/main.ml", "write_baseline");
        (* Fixture: the cross-module taint case the deep smoke pins. *)
        ("deep/keyer.ml", "");
      ];
    hot_roots =
      [
        (* The reactor's per-connection machinery: everything a shard
           domain runs between two select wakeups. *)
        ( "lib/serve/reactor.ml",
          [
            "process"; "answer_json"; "handle_read"; "try_flush";
            "flush_and_reap"; "detect"; "add_pending"; "finalize_pending";
            "take_clock";
          ] );
        (* The telemetry fold that runs on every finished request. *)
        ("lib/serve/telemetry.ml", [ "finish" ]);
        (* Fixture: the hot-loop case the deep smoke pins. *)
        ("deep/pump.ml", [ "loop" ]);
      ];
  }

(* Strip "./" and "../" runs so prefixes keep matching when the tool is
   pointed at "../lib" (tests run from the build sandbox).  A
   "lint_fixture/" component and everything before it is stripped too:
   fixture trees mirror the repo layout underneath that marker so the
   lib/-scoped rules fire on them, while the repo-wide walk never
   descends into one (it is in [skip_dirs]).  The compiled deep-fixture
   tree keeps its "deep/" root after the strip ("bench/lint_fixture/
   deep/feed.ml" -> "deep/feed.ml"), which is what the "deep/" scope
   entries above match. *)
let normalize path =
  let path = String.map (fun c -> if c = '\\' then '/' else c) path in
  let rec strip p =
    if String.length p >= 2 && String.sub p 0 2 = "./" then
      strip (String.sub p 2 (String.length p - 2))
    else if String.length p >= 3 && String.sub p 0 3 = "../" then
      strip (String.sub p 3 (String.length p - 3))
    else p
  in
  let p = strip path in
  let marker = "lint_fixture/" in
  let mlen = String.length marker in
  let rec find_last from acc =
    if from + mlen > String.length p then acc
    else if String.sub p from mlen = marker then find_last (from + 1) (Some from)
    else find_last (from + 1) acc
  in
  match find_last 0 None with
  | Some i -> String.sub p (i + mlen) (String.length p - i - mlen)
  | None -> p

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  String.length s >= String.length suffix
  && String.sub s (String.length s - String.length suffix) (String.length suffix)
     = suffix

let in_any prefixes path =
  let path = normalize path in
  List.exists (fun prefix -> starts_with ~prefix path) prefixes

let allowed_file suffixes path =
  let path = normalize path in
  List.exists (fun suffix -> ends_with ~suffix path || path = suffix) suffixes

let sink_of config path name =
  let path = normalize path in
  List.find_opt
    (fun (file_prefix, name_prefix) ->
      starts_with ~prefix:file_prefix path
      && starts_with ~prefix:name_prefix name)
    config.deep_sinks

let is_hot_root config path name =
  let path = normalize path in
  List.exists
    (fun (file_prefix, names) ->
      starts_with ~prefix:file_prefix path
      && (names = [] || List.mem name names))
    config.hot_roots
