(* Classic extensive-form games with known subgame-perfect equilibria:
   the fixtures the generic backward-induction solver (Gametree.Solve)
   is checked against.

   - [centipede ~rounds ~pot0 ~growth]: Rosenthal's centipede.  At each
     round the mover either takes (2/3 of the pot, opponent 1/3) or
     passes, multiplying the pot by [growth > 1]; after the final pass
     the pot is split evenly.  SPE: player 0 takes immediately.
   - [ultimatum ~levels]: player 0 offers [k] in [0..levels] of a pie
     of size [levels]; player 1 accepts or rejects (both get 0).
     Accept is listed first, so ties resolve to acceptance and the SPE
     offer is 0.
   - [entry_deterrence]: the entrant (player 0) enters or stays out;
     the incumbent accommodates or fights.  SPE: enter, accommodate.
   - [coin_then_choice]: a fair coin before a decision, where player 0
     should pick the risky arm (expected 1.5) over the safe 1.0. *)

open Gametree

let centipede ~rounds ~pot0 ~growth =
  if rounds < 1 then invalid_arg "Classic.centipede: requires rounds >= 1";
  if growth <= 1. then invalid_arg "Classic.centipede: requires growth > 1";
  let rec build round pot =
    let mover = (round - 1) mod 2 in
    let take_payoffs =
      let big = 2. /. 3. *. pot and small = 1. /. 3. *. pot in
      if mover = 0 then [| big; small |] else [| small; big |]
    in
    let take = Game.terminal ~label:"take" take_payoffs in
    let continuation =
      if round = rounds then
        Game.terminal ~label:"split" [| pot *. growth /. 2.; pot *. growth /. 2. |]
      else build (round + 1) (pot *. growth)
    in
    Game.decision
      ~label:(Printf.sprintf "round%d" round)
      ~player:mover
      [ ("take", take); ("pass", continuation) ]
  in
  build 1 pot0

let ultimatum ~levels =
  if levels < 1 then invalid_arg "Classic.ultimatum: requires levels >= 1";
  let pie = float_of_int levels in
  let offers =
    List.init (levels + 1) (fun k ->
        let kf = float_of_int k in
        let responder =
          Game.decision
            ~label:(Printf.sprintf "respond%d" k)
            ~player:1
            [
              ("accept", Game.terminal ~label:"deal" [| pie -. kf; kf |]);
              ("reject", Game.terminal ~label:"no_deal" [| 0.; 0. |]);
            ]
        in
        (Printf.sprintf "offer%d" k, responder))
  in
  Game.decision ~label:"propose" ~player:0 offers

let entry_deterrence =
  Game.decision ~label:"entry" ~player:0
    [
      ( "enter",
        Game.decision ~label:"response" ~player:1
          [
            ("accommodate", Game.terminal ~label:"duopoly" [| 2.; 1. |]);
            ("fight", Game.terminal ~label:"war" [| -1.; -1. |]);
          ] );
      ("stay_out", Game.terminal ~label:"monopoly" [| 0.; 2. |]);
    ]

let coin_then_choice =
  Game.decision ~label:"pick" ~player:0
    [
      ("safe", Game.terminal ~label:"safe" [| 1.; 0. |]);
      ( "risky",
        Game.chance ~label:"coin"
          [
            (0.5, Game.terminal ~label:"heads" [| 3.; 0. |]);
            (0.5, Game.terminal ~label:"tails" [| 0.; 0. |]);
          ] );
    ]
