(* The whole-tree pass: walk the requested roots, scan every .ml once
   (Rules.scan — findings plus suppression table), add the
   interface-coverage rule (R5, which needs the file set rather than an
   AST), optionally run the deep whole-program pass over the .cmt
   typedtrees (Callgraph + Taint + Reach), and render the result as a
   human report or as an htlc-lint/v1 / v2 JSON document.  Summary
   counters go through Obs.Metrics so `swap_lint --metrics` composes
   with the rest of the observability layer.

   The suppression tables collected by the syntactic scan are the
   single source of truth for the deep pass too: deep findings anchor
   at real source lines (the taint sink's definition, the blocking
   call, the unguarded access), so the same line-span match applies,
   and taint sources are neutralised through {!Rules.covers} against
   the same tables — one parse per file per run, whatever the mode. *)

let m_files = Obs.Metrics.counter "lint.files_scanned"
let m_errors = Obs.Metrics.counter "lint.errors"
let m_warnings = Obs.Metrics.counter "lint.warnings"
let m_suppressed = Obs.Metrics.counter "lint.suppressed"
let m_wall = Obs.Metrics.gauge "lint.wall_s"
let m_deep_cmts = Obs.Metrics.counter "lint.deep.cmt_files"
let m_deep_nodes = Obs.Metrics.counter "lint.deep.nodes"
let m_deep_edges = Obs.Metrics.counter "lint.deep.edges"
let m_deep_wall = Obs.Metrics.gauge "lint.deep.wall_s"

type deep_summary = {
  cmt_files : int;
  nodes : int;
  edges : int;
  deep_wall_s : float;
}

type result = {
  findings : Finding.t list;
  files_scanned : int;
  suppressed : int;
  wall_s : float;
  deep : deep_summary option;
}

(* --- file discovery ------------------------------------------------------ *)

(* The build writes and deletes temporaries under the walked trees while
   a walk runs, so an entry [Sys.readdir] listed may be gone (or be a
   dangling link) when it is looked at: such an entry is absent. *)
let rec walk ~(config : Config.t) acc path =
  match Sys.is_directory path with
  | exception Sys_error _ -> acc
  | true -> (
    match Sys.readdir path with
    | exception Sys_error _ -> acc
    | entries ->
      Array.to_list entries |> List.sort compare
      |> List.fold_left
           (fun acc entry ->
             if List.mem entry config.skip_dirs then acc
             else walk ~config acc (Filename.concat path entry))
           acc)
  | false ->
    if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
    then path :: acc
    else acc

let list_files ~config roots =
  List.sort compare (List.fold_left (walk ~config) [] roots)

(* --- R5: interface coverage ---------------------------------------------- *)

let missing_mli ~(config : Config.t) files =
  let have_mli =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".mli" then Some (Config.normalize f)
        else None)
      files
  in
  List.filter_map
    (fun f ->
      if not (Filename.check_suffix f ".ml") then None
      else
        let n = Config.normalize f in
        if
          Config.in_any config.mli_prefixes n
          && (not (Config.in_any config.mli_exempt n))
          && not (List.mem (n ^ "i") have_mli)
        then
          Some
            {
              Finding.file = n;
              line = 1;
              col = 0;
              rule = "missing_mli";
              severity = Finding.Error;
              message =
                "library module without an interface: every lib/ module \
                 ships a .mli so its public surface (and what stays \
                 private) is reviewed, not accidental";
              chain = [];
            }
        else None)
    files

(* --- summaries ----------------------------------------------------------- *)

let count severity findings =
  List.length
    (List.filter (fun (f : Finding.t) -> f.severity = severity) findings)

let errors r = count Finding.Error r.findings
let warnings r = count Finding.Warning r.findings
let exit_code r = if errors r > 0 then 1 else 0

let by_rule findings =
  List.sort compare
    (List.fold_left
       (fun acc (f : Finding.t) ->
         match List.assoc_opt f.rule acc with
         | Some n -> (f.rule, n + 1) :: List.remove_assoc f.rule acc
         | None -> (f.rule, 1) :: acc)
       [] findings)

(* --- the run ------------------------------------------------------------- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

let default_cmt_root () =
  if Sys.file_exists "_build/default" && Sys.is_directory "_build/default"
  then "_build/default"
  else "."

(* The deep pass proper: build the graph, run the three analyses, drop
   findings a justified allowance covers (counting them suppressed),
   and surface unreadable cmts as deep_load warnings so a broken build
   cannot masquerade as a clean analysis. *)
let run_deep ~config ~cmt_root ~tables ~suppressed =
  let t0 = Obs.Monotonic.now_ns () in
  let graph = Callgraph.build ~config ~cmt_root () in
  let covers ~file ~line ~rule =
    match Hashtbl.find_opt tables file with
    | None -> false
    | Some supps -> Rules.covers supps ~line ~rule
  in
  let raw =
    Taint.taint_findings ~config ~covers graph
    @ Reach.hot_findings ~config graph
    @ Taint.lock_findings ~config graph
  in
  let kept = List.filter (fun (f : Finding.t) -> not (covers ~file:f.file ~line:f.line ~rule:f.rule)) raw in
  suppressed := !suppressed + (List.length raw - List.length kept);
  let load =
    List.map
      (fun (cmt_path, reason) ->
        {
          Finding.file = Config.normalize cmt_path;
          line = 1;
          col = 0;
          rule = "deep_load";
          severity = Finding.Warning;
          message =
            Printf.sprintf
              "cmt not analysed (%s); the deep pass is blind to this unit"
              reason;
          chain = [];
        })
      graph.load_notes
  in
  let summary =
    {
      cmt_files = graph.cmt_files;
      nodes = List.length graph.nodes;
      edges = graph.edges;
      deep_wall_s = Obs.Monotonic.elapsed_s ~since_ns:t0;
    }
  in
  (kept @ load, summary)

let run ?(config = Config.default) ?(deep = false) ?cmt_root ~roots () =
  let t0 = Obs.Monotonic.now_ns () in
  let files = list_files ~config roots in
  let suppressed = ref 0 in
  (* One parse per file: syntactic findings applied against the file's
     own suppression table, the table kept for the deep pass. *)
  let tables = Hashtbl.create 64 in
  let scanned =
    List.filter_map
      (fun path ->
        if not (Filename.check_suffix path ".ml") then None
        else begin
          let raw, supps =
            Rules.scan ~config ~path ~source:(read_file path)
          in
          let kept, n = Rules.apply raw supps in
          suppressed := !suppressed + n;
          Hashtbl.replace tables (Config.normalize path) supps;
          Some (path, supps, kept)
        end)
      files
  in
  let syntactic = List.concat_map (fun (_, _, kept) -> kept) scanned in
  let deep_findings, deep_summary =
    if deep then begin
      let cmt_root =
        match cmt_root with Some r -> r | None -> default_cmt_root ()
      in
      let fs, summary = run_deep ~config ~cmt_root ~tables ~suppressed in
      (fs, Some summary)
    end
    else ([], None)
  in
  (* Staleness only after every consumer of the tables has run. *)
  let unused =
    List.concat_map
      (fun (path, supps, _) -> Rules.unused_report ~path ~deep_ran:deep supps)
      scanned
  in
  let findings =
    List.sort Finding.compare_finding
      (syntactic @ deep_findings @ unused @ missing_mli ~config files)
  in
  let result =
    {
      findings;
      files_scanned = List.length files;
      suppressed = !suppressed;
      wall_s = Obs.Monotonic.elapsed_s ~since_ns:t0;
      deep = deep_summary;
    }
  in
  Obs.Metrics.add m_files result.files_scanned;
  Obs.Metrics.add m_errors (errors result);
  Obs.Metrics.add m_warnings (warnings result);
  Obs.Metrics.add m_suppressed result.suppressed;
  Obs.Metrics.set_gauge m_wall result.wall_s;
  Option.iter
    (fun d ->
      Obs.Metrics.add m_deep_cmts d.cmt_files;
      Obs.Metrics.add m_deep_nodes d.nodes;
      Obs.Metrics.add m_deep_edges d.edges;
      Obs.Metrics.set_gauge m_deep_wall d.deep_wall_s)
    deep_summary;
  List.iter
    (fun (rule, n) -> Obs.Metrics.add (Obs.Metrics.counter ("lint.findings." ^ rule)) n)
    (by_rule result.findings);
  result

let check_source ?(config = Config.default) ~path source =
  Rules.check ~config ~path ~source

(* --- rendering ----------------------------------------------------------- *)

let render_text r =
  let b = Buffer.create 1024 in
  List.iter
    (fun (f : Finding.t) ->
      Buffer.add_string b (Finding.to_line f);
      Buffer.add_char b '\n';
      if f.chain <> [] then begin
        Buffer.add_string b "    via ";
        Buffer.add_string b (Finding.chain_to_string f.chain);
        Buffer.add_char b '\n'
      end)
    r.findings;
  Buffer.add_string b
    (Printf.sprintf
       "lint: %d files scanned, %d errors, %d warnings, %d suppressed\n"
       r.files_scanned (errors r) (warnings r) r.suppressed);
  Option.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf
           "deep: %d cmt files, %d nodes, %d edges, %.3fs\n" d.cmt_files
           d.nodes d.edges d.deep_wall_s))
    r.deep;
  List.iter
    (fun (rule, n) ->
      Buffer.add_string b (Printf.sprintf "  %-20s %d\n" rule n))
    (by_rule r.findings);
  Buffer.contents b

let render_json r =
  let b = Buffer.create 4096 in
  let schema, finding_to_json =
    match r.deep with
    | None -> (Finding.schema, Finding.to_json)
    | Some _ -> (Finding.schema_v2, Finding.to_json_v2)
  in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":%s,\"type\":\"lint\",\"files_scanned\":%s"
       (Obs.Json.str schema)
       (Obs.Json.int r.files_scanned));
  Buffer.add_string b
    (Printf.sprintf ",\"wall_s\":%s" (Obs.Json.num r.wall_s));
  Option.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"deep\":{\"cmt_files\":%s,\"nodes\":%s,\"edges\":%s,\"wall_s\":%s}"
           (Obs.Json.int d.cmt_files) (Obs.Json.int d.nodes)
           (Obs.Json.int d.edges)
           (Obs.Json.num d.deep_wall_s)))
    r.deep;
  Buffer.add_string b
    (Printf.sprintf ",\"summary\":{\"errors\":%s" (Obs.Json.int (errors r)));
  Buffer.add_string b
    (Printf.sprintf ",\"warnings\":%s,\"suppressed\":%s,\"by_rule\":{"
       (Obs.Json.int (warnings r))
       (Obs.Json.int r.suppressed));
  List.iteri
    (fun i (rule, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "%s:%s" (Obs.Json.str rule) (Obs.Json.int n)))
    (by_rule r.findings);
  Buffer.add_string b "}},\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (finding_to_json f))
    r.findings;
  Buffer.add_string b "]}";
  Buffer.contents b
