type solved =
  | S_terminal of { payoffs : float array; label : string }
  | S_decision of {
      player : int;
      node_label : string;
      value : float array;
      chosen : string;
      branches : (string * solved) list;
    }
  | S_chance of {
      node_label : string;
      value : float array;
      branches : (float * solved) list;
    }

let value = function
  | S_terminal { payoffs; _ } -> payoffs
  | S_decision { value; _ } -> value
  | S_chance { value; _ } -> value

let m_nodes = Obs.Metrics.counter "gametree.nodes_solved"

let rec solve (game : Game.t) : solved =
  Obs.Metrics.incr m_nodes;
  match game with
  | Game.Terminal { payoffs; label } -> S_terminal { payoffs; label }
  | Game.Decision { player; node_label; actions } ->
    let branches = List.map (fun (name, child) -> (name, solve child)) actions in
    let best =
      match branches with
      | [] -> invalid_arg "Solve.solve: empty decision node"
      | first :: rest ->
        (* Strict improvement required: ties keep the earlier action. *)
        List.fold_left
          (fun ((_, best_solved) as best) ((_, cand_solved) as cand) ->
            if (value cand_solved).(player) > (value best_solved).(player)
            then cand
            else best)
          first rest
    in
    let chosen, chosen_solved = best in
    S_decision
      { player; node_label; value = value chosen_solved; chosen; branches }
  | Game.Chance { node_label; branches } ->
    let solved_branches =
      List.map (fun (p, child) -> (p, solve child)) branches
    in
    let n =
      match solved_branches with
      | (_, s) :: _ -> Array.length (value s)
      | [] -> invalid_arg "Solve.solve: empty chance node"
    in
    let acc = Array.make n 0. in
    List.iter
      (fun (p, s) ->
        let v = value s in
        for i = 0 to n - 1 do
          acc.(i) <- acc.(i) +. (p *. v.(i))
        done)
      solved_branches;
    S_chance { node_label; value = acc; branches = solved_branches }

let rec outcome_probability s pred =
  match s with
  | S_terminal { label; _ } -> if pred label then 1. else 0.
  | S_decision { chosen; branches; _ } ->
    outcome_probability (List.assoc chosen branches) pred
  | S_chance { branches; _ } ->
    List.fold_left
      (fun acc (p, child) -> acc +. (p *. outcome_probability child pred))
      0. branches
