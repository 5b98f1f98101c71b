(* Smoke tests for the experiment registry: every experiment is
   registered, named uniquely, and the fast ones run end-to-end and
   mention their key findings.  The heavyweight Monte-Carlo experiments
   are exercised by the bench harness instead. *)

let fast_experiments =
  [ "tab1"; "tab3"; "fig2"; "fig3"; "fig4"; "fig5"; "eq29"; "fig7"; "fig9";
    "waiting"; "crash"; "chaos"; "negotiation"; "security"; "attribution";
    "multihop" ]

let test_registry_complete () =
  let expected =
    [ "tab1"; "tab3"; "fig2"; "fig3"; "fig4"; "fig5"; "eq29"; "fig6"; "fig7";
      "fig8"; "fig9"; "mc"; "lattice"; "baselines"; "jumps"; "optionality";
      "selection"; "frictions"; "backtest"; "crash"; "ac3"; "waiting";
      "stablecoin"; "negotiation"; "security"; "multihop"; "uncertainty";
      "attribution"; "scorecard"; "presets" ]
  in
  let names =
    List.map (fun e -> e.Experiments.Registry.name) Experiments.Registry.all
  in
  List.iter
    (fun e ->
      if not (List.mem e names) then Alcotest.failf "missing experiment %s" e)
    expected;
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length sorted)

let test_find () =
  (match Experiments.Registry.find "eq29" with
  | Some e -> Alcotest.(check string) "found" "eq29" e.Experiments.Registry.name
  | None -> Alcotest.fail "eq29 must resolve");
  Alcotest.(check bool) "unknown is None" true
    (Experiments.Registry.find "nope" = None)

let run_one name =
  match Experiments.Registry.find name with
  | None -> Alcotest.failf "experiment %s not registered" name
  | Some e ->
    let output = e.Experiments.Registry.run () in
    if String.length output < 200 then
      Alcotest.failf "%s: suspiciously short output (%d chars)" name
        (String.length output);
    output

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_fast_experiments_run () =
  List.iter (fun name -> ignore (run_one name)) fast_experiments

let test_key_findings_present () =
  let checks =
    [
      ("eq29", "1.5");
      ("tab1", "success");
      ("fig9", "SR rises monotonically");
      ("crash", "VIOLATED");
      ("chaos", "recovers with added slack");
      ("waiting", "incentive-compatible");
      ("security", "griefing");
      ("multihop", "abort@lock1");
      ( "multihop",
        "ANOMALOUS: hop0=claimed@18, hop1=refunded@17, hop2=claimed@16" );
    ]
  in
  List.iter
    (fun (name, marker) ->
      let out = run_one name in
      if not (contains out marker) then
        Alcotest.failf "%s: expected %S in the report" name marker)
    checks

let test_scorecard_all_pass () =
  if not (Experiments.Scorecard.all_pass ()) then
    Alcotest.fail "a replication claim failed; run 'experiment scorecard'"

(* A statement is printed as one table cell: a run of spaces or a line
   break inside it (a hand-wrapped literal) misaligns the row. *)
let test_scorecard_statements_one_line () =
  List.iter
    (fun (c : Experiments.Scorecard.claim) ->
      if contains c.statement "  " || String.contains c.statement '\n' then
        Alcotest.failf "%s: statement %S holds a double space or a newline"
          c.id c.statement)
    (Experiments.Scorecard.claims ())

let test_datasets_produce_csv () =
  List.iter
    (fun id ->
      match Experiments.Registry.find id with
      | None -> Alcotest.failf "missing %s" id
      | Some e -> (
        match e.Experiments.Registry.datasets with
        | None -> Alcotest.failf "%s should carry datasets" id
        | Some datasets ->
          List.iter
            (fun (filename, contents) ->
              if not (Filename.check_suffix filename ".csv") then
                Alcotest.failf "%s: dataset %s not .csv" id filename;
              let lines = String.split_on_char '\n' contents in
              if List.length lines < 3 then
                Alcotest.failf "%s: dataset %s nearly empty" id filename;
              let header_cols =
                List.length (String.split_on_char ',' (List.hd lines))
              in
              if header_cols < 2 then
                Alcotest.failf "%s: dataset %s lacks columns" id filename)
            (datasets ())))
    [ "fig5"; "fig9" ]

let test_renderer_basics () =
  let table =
    Experiments.Render.table ~header:[ "a"; "b" ]
      ~rows:[ [ "1"; "22" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "aligned columns" true (contains table "333  4");
  let csv = Experiments.Render.csv ~header:[ "x" ] ~rows:[ [ "1" ]; [ "2" ] ] in
  Alcotest.(check string) "csv" "x\n1\n2\n" csv;
  let plot =
    Experiments.Render.ascii_plot ~width:20 ~height:5
      [ ("s", [| (0., 0.); (1., 1.) |]) ]
  in
  Alcotest.(check bool) "plot has legend" true (contains plot "[*] s");
  Alcotest.(check string) "fmt integers" "3" (Experiments.Render.fmt 3.)

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_find;
        ] );
      ( "reports",
        [
          Alcotest.test_case "fast experiments run" `Slow
            test_fast_experiments_run;
          Alcotest.test_case "key findings present" `Slow
            test_key_findings_present;
          Alcotest.test_case "scorecard all PASS" `Slow
            test_scorecard_all_pass;
          Alcotest.test_case "scorecard statements are one line" `Quick
            test_scorecard_statements_one_line;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "figures emit parseable CSV" `Slow
            test_datasets_produce_csv;
        ] );
      ( "render",
        [ Alcotest.test_case "table/csv/plot" `Quick test_renderer_basics ] );
    ]
