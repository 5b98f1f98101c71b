type t = {
  row_actions : string array;
  col_actions : string array;
  row_payoffs : float array array;
  col_payoffs : float array array;
}

let create ~row_actions ~col_actions ~row_payoffs ~col_payoffs =
  let m = Array.length row_actions and n = Array.length col_actions in
  if m = 0 || n = 0 then invalid_arg "Normal_form.create: empty action set";
  let check_shape name matrix =
    if Array.length matrix <> m then
      invalid_arg ("Normal_form.create: bad row count in " ^ name);
    Array.iter
      (fun row ->
        if Array.length row <> n then
          invalid_arg ("Normal_form.create: bad column count in " ^ name))
      matrix
  in
  check_shape "row_payoffs" row_payoffs;
  check_shape "col_payoffs" col_payoffs;
  { row_actions; col_actions; row_payoffs; col_payoffs }

let dims t = (Array.length t.row_actions, Array.length t.col_actions)

let pure_nash t =
  let m, n = dims t in
  let best_row j =
    (* Maximum row payoff against column j. *)
    let best = ref neg_infinity in
    for i = 0 to m - 1 do
      if t.row_payoffs.(i).(j) > !best then best := t.row_payoffs.(i).(j)
    done;
    !best
  in
  let best_col i =
    let best = ref neg_infinity in
    for j = 0 to n - 1 do
      if t.col_payoffs.(i).(j) > !best then best := t.col_payoffs.(i).(j)
    done;
    !best
  in
  let acc = ref [] in
  for i = m - 1 downto 0 do
    for j = n - 1 downto 0 do
      if
        t.row_payoffs.(i).(j) >= best_row j -. 1e-12
        && t.col_payoffs.(i).(j) >= best_col i -. 1e-12
      then acc := (i, j) :: !acc
    done
  done;
  !acc
