let linspace ~lo ~hi ~n =
  if n < 2 then invalid_arg "Grid.linspace: requires n >= 2";
  Array.init n (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

let arange ~lo ~hi ~step =
  if step <= 0. then invalid_arg "Grid.arange: requires step > 0";
  let n = int_of_float (ceil ((hi -. lo) /. step)) in
  let n = max n 0 in
  Array.init n (fun i -> lo +. (float_of_int i *. step))
