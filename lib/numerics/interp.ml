let check_increasing name xs =
  for i = 1 to Array.length xs - 1 do
    if xs.(i) <= xs.(i - 1) then
      invalid_arg (name ^ ": abscissae must be strictly increasing")
  done

(* Largest index i with xs.(i) <= x, clamped to [0, n-2]. *)
let interval_index xs x =
  let n = Array.length xs in
  if x <= xs.(0) then 0
  else if x >= xs.(n - 2) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 2) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid - 1
    done;
    !lo
  end

module Bilinear = struct
  type t = { xs : float array; ys : float array; values : float array array }

  let create ~xs ~ys ~values =
    if Array.length xs < 2 || Array.length ys < 2 then
      invalid_arg "Bilinear.create: needs >= 2 points per axis";
    check_increasing "Bilinear.create (x)" xs;
    check_increasing "Bilinear.create (y)" ys;
    if Array.length values <> Array.length xs then
      invalid_arg "Bilinear.create: row count mismatch";
    Array.iter
      (fun row ->
        if Array.length row <> Array.length ys then
          invalid_arg "Bilinear.create: column count mismatch")
      values;
    { xs; ys; values }

  let eval t ~x ~y =
    let nx = Array.length t.xs and ny = Array.length t.ys in
    if x < t.xs.(0) || x > t.xs.(nx - 1) || y < t.ys.(0) || y > t.ys.(ny - 1)
    then None
    else begin
      let i = interval_index t.xs x and j = interval_index t.ys y in
      let v00 = t.values.(i).(j)
      and v01 = t.values.(i).(j + 1)
      and v10 = t.values.(i + 1).(j)
      and v11 = t.values.(i + 1).(j + 1) in
      if Float.is_nan v00 || Float.is_nan v01 || Float.is_nan v10
         || Float.is_nan v11
      then None
      else begin
        let tx = (x -. t.xs.(i)) /. (t.xs.(i + 1) -. t.xs.(i)) in
        let ty = (y -. t.ys.(j)) /. (t.ys.(j + 1) -. t.ys.(j)) in
        Some
          (((1. -. tx) *. (1. -. ty) *. v00)
          +. ((1. -. tx) *. ty *. v01)
          +. (tx *. (1. -. ty) *. v10)
          +. (tx *. ty *. v11))
      end
    end
end
