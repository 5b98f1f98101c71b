open Numerics

type t = { times : float array; values : float array }

let m_created = Obs.Metrics.counter "stochastic.paths_created"

let create ~times ~values =
  let n = Array.length times in
  if n = 0 then invalid_arg "Path.create: empty";
  if Array.length values <> n then invalid_arg "Path.create: length mismatch";
  for i = 1 to n - 1 do
    if times.(i) <= times.(i - 1) then
      invalid_arg "Path.create: times must be strictly increasing"
  done;
  Obs.Metrics.incr m_created;
  { times; values }

(* Binary search for the largest index with times.(i) <= t. *)
let index_before p t =
  let n = Array.length p.times in
  if t < p.times.(0) then
    invalid_arg "Path.at: time precedes first sample";
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if p.times.(mid) <= t then lo := mid else hi := mid - 1
  done;
  !lo

let at p t = p.values.(index_before p t)

let log_returns p =
  let n = Array.length p.values in
  Array.init (n - 1) (fun i ->
      let a = p.values.(i) and b = p.values.(i + 1) in
      if a <= 0. || b <= 0. then
        invalid_arg "Path.log_returns: nonpositive value";
      log (b /. a))

let realized_volatility p =
  let n = Array.length p.times in
  if n < 3 then invalid_arg "Path.realized_volatility: needs >= 3 samples";
  let rets = log_returns p in
  let mean_dt = (p.times.(n - 1) -. p.times.(0)) /. float_of_int (n - 1) in
  Stats.stddev rets /. sqrt mean_dt
