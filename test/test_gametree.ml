(* Tests for the extensive-form game substrate: construction,
   validation, and the backward-induction solver on the classic games
   with known subgame-perfect equilibria (test/oracle/classic.ml). *)

open Gametree

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

(* The line of play a solved tree prescribes: the chosen action at each
   decision, the most probable branch at each chance node (first on
   ties). *)
let rec spe_path = function
  | Solve.S_terminal _ -> []
  | Solve.S_decision { chosen; branches; _ } ->
    chosen :: spe_path (List.assoc chosen branches)
  | Solve.S_chance { branches; _ } ->
    let _, best =
      List.fold_left
        (fun ((bp, _) as acc) ((p, _) as cand) -> if p > bp then cand else acc)
        (List.hd branches) (List.tl branches)
    in
    spe_path best

let payoff s player = (Solve.value s).(player)

(* --- construction and validation ------------------------------------- *)

let test_chance_validation () =
  Alcotest.check_raises "probabilities must sum to 1"
    (Invalid_argument "Game.chance: probabilities must sum to 1") (fun () ->
      ignore
        (Game.chance
           [ (0.5, Game.terminal [| 1. |]); (0.6, Game.terminal [| 0. |]) ]));
  Alcotest.check_raises "nonpositive probability"
    (Invalid_argument "Game.chance: probabilities must be positive") (fun () ->
      ignore
        (Game.chance
           [ (1.2, Game.terminal [| 1. |]); (-0.2, Game.terminal [| 0. |]) ]))

let test_decision_validation () =
  Alcotest.check_raises "empty actions"
    (Invalid_argument "Game.decision: empty action list") (fun () ->
      ignore (Game.decision ~player:0 []))

let test_size_depth () =
  let g = Oracle.Classic.entry_deterrence in
  Alcotest.(check int) "size" 5 (Game.size g);
  Alcotest.(check bool) "two-player payoffs validate" true
    (Game.validate g = Ok ())

let test_validate_ok () =
  List.iter
    (fun g ->
      match Game.validate g with
      | Ok () -> ()
      | Error e -> Alcotest.failf "expected valid game: %s" e)
    [
      Oracle.Classic.entry_deterrence;
      Oracle.Classic.coin_then_choice;
      Oracle.Classic.centipede ~rounds:6 ~pot0:3. ~growth:1.25;
      Oracle.Classic.ultimatum ~levels:5;
    ]

let test_validate_catches_bad_player () =
  let bad = Game.decision ~player:7 [ ("x", Game.terminal [| 1.; 2. |]) ] in
  match Game.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected invalid player index to be caught"

(* --- solver on classic games ------------------------------------------- *)

let test_entry_deterrence () =
  let s = Solve.solve Oracle.Classic.entry_deterrence in
  Alcotest.(check (list string))
    "SPE path" [ "enter"; "accommodate" ] (spe_path s);
  check_float "entrant value" 2. (payoff s 0);
  check_float "incumbent value" 1. (payoff s 1)

let test_centipede_takes_immediately () =
  (* With growth < 4/3 the unique SPE is to take at round 1. *)
  let g = Oracle.Classic.centipede ~rounds:8 ~pot0:3. ~growth:1.25 in
  let s = Solve.solve g in
  (match spe_path s with
  | "take" :: _ -> ()
  | other -> Alcotest.failf "expected immediate take, got %s" (String.concat "," other));
  check_float "mover gets 2/3 pot" 2. (payoff s 0)

let test_ultimatum_minimal_offer () =
  let s = Solve.solve (Oracle.Classic.ultimatum ~levels:10) in
  (match spe_path s with
  | [ "offer0"; "accept" ] -> ()
  | other -> Alcotest.failf "unexpected SPE path: %s" (String.concat "," other));
  check_float "proposer takes the pie" 10. (payoff s 0)

let test_chance_expectation () =
  let s = Solve.solve Oracle.Classic.coin_then_choice in
  (match spe_path s with
  | "risky" :: _ -> ()
  | other -> Alcotest.failf "expected risky, got %s" (String.concat "," other));
  check_float "value is the expectation" 1.5 (payoff s 0)

let test_tie_breaks_to_first_action () =
  let g =
    Game.decision ~player:0
      [
        ("first", Game.terminal ~label:"a" [| 1. |]);
        ("second", Game.terminal ~label:"b" [| 1. |]);
      ]
  in
  match Solve.solve g with
  | Solve.S_decision { chosen; _ } ->
    Alcotest.(check string) "tie -> first listed" "first" chosen
  | _ -> Alcotest.fail "expected decision root"

let test_outcome_probability () =
  let g =
    Game.chance
      [
        (0.25, Game.terminal ~label:"win" [| 1. |]);
        (0.75, Game.terminal ~label:"lose" [| 0. |]);
      ]
  in
  let s = Solve.solve g in
  check_float "P(win)" 0.25 (Solve.outcome_probability s (String.equal "win"));
  check_float "P(anything)" 1. (Solve.outcome_probability s (fun _ -> true))

let test_outcome_probability_respects_decisions () =
  (* The player avoids the "bad" branch, so its probability is 0. *)
  let g =
    Game.decision ~player:0
      [
        ("good", Game.terminal ~label:"good" [| 1. |]);
        ("bad", Game.terminal ~label:"bad" [| 0. |]);
      ]
  in
  let s = Solve.solve g in
  check_float "P(bad) = 0" 0. (Solve.outcome_probability s (String.equal "bad"))

(* One play through a solved tree: the chosen action at each decision,
   a branch drawn by its probability at each chance node; the label of
   the terminal reached. *)
let rec playout rng = function
  | Solve.S_terminal { label; _ } -> label
  | Solve.S_decision { chosen; branches; _ } ->
    playout rng (List.assoc chosen branches)
  | Solve.S_chance { branches; _ } ->
    let u = Numerics.Rng.uniform rng in
    let rec pick acc = function
      | [ (_, child) ] -> child
      | (p, child) :: rest -> if u < acc +. p then child else pick (acc +. p) rest
      | [] -> Alcotest.fail "empty chance node"
    in
    playout rng (pick 0. branches)

let test_playout_frequencies () =
  let s = Solve.solve Oracle.Classic.coin_then_choice in
  let rng = Numerics.Rng.create ~seed:9 () in
  let n = 50_000 in
  let heads = ref 0 in
  for _ = 1 to n do
    if playout rng s = "heads" then incr heads
  done;
  let freq = float_of_int !heads /. float_of_int n in
  check_float ~tol:0.01 "playouts match outcome_probability"
    (Solve.outcome_probability s (String.equal "heads"))
    freq

let test_strategy_extraction () =
  match Solve.solve Oracle.Classic.entry_deterrence with
  | Solve.S_decision { node_label = "entry"; chosen = "enter"; branches; _ } -> (
    match List.assoc "enter" branches with
    | Solve.S_decision { node_label = "response"; chosen; _ } ->
      Alcotest.(check string) "incumbent accommodates" "accommodate" chosen
    | _ -> Alcotest.fail "expected the incumbent's decision after entry")
  | _ -> Alcotest.fail "expected the entrant to enter"

(* --- normal-form games ----------------------------------------------------- *)

let prisoners_dilemma =
  Normal_form.create
    ~row_actions:[| "cooperate"; "defect" |]
    ~col_actions:[| "cooperate"; "defect" |]
    ~row_payoffs:[| [| 3.; 0. |]; [| 5.; 1. |] |]
    ~col_payoffs:[| [| 3.; 5. |]; [| 0.; 1. |] |]

let matching_pennies =
  Normal_form.create
    ~row_actions:[| "heads"; "tails" |]
    ~col_actions:[| "heads"; "tails" |]
    ~row_payoffs:[| [| 1.; -1. |]; [| -1.; 1. |] |]
    ~col_payoffs:[| [| -1.; 1. |]; [| 1.; -1. |] |]

let stag_hunt =
  Normal_form.create
    ~row_actions:[| "stag"; "hare" |]
    ~col_actions:[| "stag"; "hare" |]
    ~row_payoffs:[| [| 4.; 0. |]; [| 3.; 3. |] |]
    ~col_payoffs:[| [| 4.; 3. |]; [| 0.; 3. |] |]

let test_nf_prisoners_dilemma () =
  Alcotest.(check (list (pair int int)))
    "defect/defect" [ (1, 1) ]
    (Normal_form.pure_nash prisoners_dilemma)

let test_nf_matching_pennies () =
  Alcotest.(check (list (pair int int)))
    "no pure equilibrium" []
    (Normal_form.pure_nash matching_pennies)

let test_nf_stag_hunt_coordination () =
  Alcotest.(check (list (pair int int)))
    "two pure equilibria" [ (0, 0); (1, 1) ]
    (Normal_form.pure_nash stag_hunt)

let test_nf_validation () =
  match
    Normal_form.create ~row_actions:[| "a" |] ~col_actions:[| "b" |]
      ~row_payoffs:[| [| 1.; 2. |] |]
      ~col_payoffs:[| [| 1. |] |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shape mismatch must be rejected"

(* --- solver properties on random games ---------------------------------- *)

(* Random two-player game generator: bounded depth, random payoffs. *)
let rec random_game rng depth =
  let open Numerics in
  if depth = 0 || Rng.uniform rng < 0.3 then
    Game.terminal
      ~label:(if Rng.uniform rng < 0.5 then "even" else "odd")
      [| -10. +. (20. *. Rng.uniform rng); -10. +. (20. *. Rng.uniform rng) |]
  else if Rng.uniform rng < 0.4 then begin
    let n = 2 + Rng.int_below rng 3 in
    let raw = Array.init n (fun _ -> 0.1 +. Rng.uniform rng) in
    let total = Array.fold_left ( +. ) 0. raw in
    Game.chance
      (Array.to_list
         (Array.map (fun w -> (w /. total, random_game rng (depth - 1))) raw))
  end
  else
    let n = 2 + Rng.int_below rng 2 in
    Game.decision ~player:(Rng.int_below rng 2)
      (List.init n (fun i ->
           (Printf.sprintf "a%d" i, random_game rng (depth - 1))))

let rec check_optimality = function
  | Solve.S_terminal _ -> true
  | Solve.S_decision { player; value; chosen; branches; _ } ->
    let chosen_value = (Solve.value (List.assoc chosen branches)).(player) in
    value.(player) = chosen_value
    && List.for_all
         (fun (_, child) -> (Solve.value child).(player) <= chosen_value +. 1e-12)
         branches
    && List.for_all (fun (_, child) -> check_optimality child) branches
  | Solve.S_chance { branches; _ } ->
    List.for_all (fun (_, child) -> check_optimality child) branches

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"SPE choice maximises own payoff everywhere" ~count:150
      (int_range 0 100_000)
      (fun seed ->
        let rng = Numerics.Rng.create ~seed () in
        let g = random_game rng 5 in
        check_optimality (Solve.solve g));
    Test.make ~name:"outcome probabilities sum to 1" ~count:150
      (int_range 0 100_000)
      (fun seed ->
        let rng = Numerics.Rng.create ~seed () in
        let g = random_game rng 5 in
        let s = Solve.solve g in
        abs_float (Solve.outcome_probability s (fun _ -> true) -. 1.) < 1e-9);
    Test.make ~name:"chance value is the branch average" ~count:100
      (int_range 0 100_000)
      (fun seed ->
        let rng = Numerics.Rng.create ~seed () in
        let g = random_game rng 4 in
        match Solve.solve g with
        | Solve.S_chance { value; branches; _ } ->
          let acc = Array.make (Array.length value) 0. in
          List.iter
            (fun (p, child) ->
              let v = Solve.value child in
              Array.iteri (fun i x -> acc.(i) <- acc.(i) +. (p *. x)) v)
            branches;
          Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) acc value
        | _ -> true);
  ]

let () =
  let props = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "gametree"
    [
      ( "construction",
        [
          Alcotest.test_case "chance validation" `Quick test_chance_validation;
          Alcotest.test_case "decision validation" `Quick
            test_decision_validation;
          Alcotest.test_case "size/depth/players" `Quick test_size_depth;
          Alcotest.test_case "classic games validate" `Quick test_validate_ok;
          Alcotest.test_case "bad player index caught" `Quick
            test_validate_catches_bad_player;
        ] );
      ( "solve",
        [
          Alcotest.test_case "entry deterrence SPE" `Quick
            test_entry_deterrence;
          Alcotest.test_case "centipede unravels" `Quick
            test_centipede_takes_immediately;
          Alcotest.test_case "ultimatum minimal offer" `Quick
            test_ultimatum_minimal_offer;
          Alcotest.test_case "chance expectation" `Quick
            test_chance_expectation;
          Alcotest.test_case "ties break to first action" `Quick
            test_tie_breaks_to_first_action;
          Alcotest.test_case "outcome probability" `Quick
            test_outcome_probability;
          Alcotest.test_case "decisions zero out avoided branches" `Quick
            test_outcome_probability_respects_decisions;
          Alcotest.test_case "strategy extraction" `Quick
            test_strategy_extraction;
          Alcotest.test_case "playout frequencies" `Slow
            test_playout_frequencies;
        ] );
      ( "normal_form",
        [
          Alcotest.test_case "prisoner's dilemma" `Quick
            test_nf_prisoners_dilemma;
          Alcotest.test_case "matching pennies (mixed)" `Quick
            test_nf_matching_pennies;
          Alcotest.test_case "stag hunt coordination" `Quick
            test_nf_stag_hunt_coordination;
          Alcotest.test_case "validation" `Quick test_nf_validation;
        ] );
      ("properties", props);
    ]
