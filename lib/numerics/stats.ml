type summary = {
  n : int;
  mean : float;
  variance : float;
  stddev : float;
  min : float;
  max : float;
}

let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let summarize xs =
  check_nonempty "Stats.summarize" xs;
  (* Welford's online algorithm: numerically stable single pass. *)
  let n = ref 0 in
  let mean = ref 0. in
  let m2 = ref 0. in
  let mn = ref infinity and mx = ref neg_infinity in
  Array.iter
    (fun x ->
      incr n;
      let delta = x -. !mean in
      mean := !mean +. (delta /. float_of_int !n);
      m2 := !m2 +. (delta *. (x -. !mean));
      if x < !mn then mn := x;
      if x > !mx then mx := x)
    xs;
  let variance = if !n < 2 then 0. else !m2 /. float_of_int (!n - 1) in
  {
    n = !n;
    mean = !mean;
    variance;
    stddev = sqrt variance;
    min = !mn;
    max = !mx;
  }

let stddev xs = (summarize xs).stddev

let wilson_interval ~successes ~trials ~z =
  if trials <= 0 then invalid_arg "Stats.wilson_interval: trials <= 0";
  if successes < 0 || successes > trials then
    invalid_arg "Stats.wilson_interval: successes outside [0, trials]";
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. n) in
  let centre = (p +. (z2 /. (2. *. n))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n)))
  in
  (max 0. (centre -. half), min 1. (centre +. half))
