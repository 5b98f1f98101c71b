type t =
  | Terminal of { payoffs : float array; label : string }
  | Decision of {
      player : int;
      node_label : string;
      actions : (string * t) list;
    }
  | Chance of { node_label : string; branches : (float * t) list }

let terminal ?(label = "") payoffs = Terminal { payoffs; label }

let decision ?(label = "") ~player actions =
  if actions = [] then invalid_arg "Game.decision: empty action list";
  if player < 0 then invalid_arg "Game.decision: negative player index";
  Decision { player; node_label = label; actions }

let chance ?(label = "") branches =
  if branches = [] then invalid_arg "Game.chance: empty branch list";
  let total = List.fold_left (fun acc (p, _) -> acc +. p) 0. branches in
  if List.exists (fun (p, _) -> p <= 0.) branches then
    invalid_arg "Game.chance: probabilities must be positive";
  if abs_float (total -. 1.) > 1e-9 then
    invalid_arg "Game.chance: probabilities must sum to 1";
  Chance { node_label = label; branches }

let rec size = function
  | Terminal _ -> 1
  | Decision { actions; _ } ->
    List.fold_left (fun acc (_, c) -> acc + size c) 1 actions
  | Chance { branches; _ } ->
    List.fold_left (fun acc (_, c) -> acc + size c) 1 branches

let validate t =
  let rec first_leaf = function
    | Terminal { payoffs; _ } -> payoffs
    | Decision { actions = (_, child) :: _; _ } -> first_leaf child
    | Decision { actions = []; _ } -> assert false
    | Chance { branches = (_, child) :: _; _ } -> first_leaf child
    | Chance { branches = []; _ } -> assert false
  in
  let n = Array.length (first_leaf t) in
  let rec go = function
    | Terminal { payoffs; _ } ->
      if Array.length payoffs <> n then
        Error
          (Printf.sprintf "payoff arity %d, expected %d"
             (Array.length payoffs) n)
      else Ok ()
    | Decision { player; actions; _ } ->
      if player < 0 || player >= n then
        Error (Printf.sprintf "player %d out of range [0, %d)" player n)
      else if actions = [] then Error "empty action list"
      else
        List.fold_left
          (fun acc (_, c) -> match acc with Ok () -> go c | e -> e)
          (Ok ()) actions
    | Chance { branches; _ } ->
      let total = List.fold_left (fun acc (p, _) -> acc +. p) 0. branches in
      if branches = [] then Error "empty chance node"
      else if List.exists (fun (p, _) -> p <= 0.) branches then
        Error "nonpositive chance probability"
      else if abs_float (total -. 1.) > 1e-9 then
        Error (Printf.sprintf "chance probabilities sum to %g" total)
      else
        List.fold_left
          (fun acc (_, c) -> match acc with Ok () -> go c | e -> e)
          (Ok ()) branches
  in
  go t
