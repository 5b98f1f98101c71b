(* Gate self-test: the benchmark's output checks must see planted
   faults, and a held-out seed must give the same op mix with other
   inputs.  Runs under [dune runtest]; each timed phase is a fraction of
   a second. *)

open Perfbench

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let phase f =
  let ph = Util.new_phase () in
  f ph;
  ph

(* Latency percentiles come from a log-linear histogram; they must stay
   within its bucket width (0.55%) of the exact nearest-rank values. *)
let hist () =
  let h = Util.Hist.create () in
  let xs = Array.init 20000 (fun i -> 0.5 +. (float_of_int ((i * 7919) mod 20000) *. 0.37)) in
  Array.iter (Util.Hist.add h) xs;
  Array.sort Float.compare xs;
  expect "histogram percentiles are within a bucket of the exact ones"
    (List.for_all
       (fun q -> Float.abs ((Util.Hist.percentile h q /. Util.percentile xs q) -. 1.) < 0.0055)
       [ 0.01; 0.1; 0.5; 0.9; 0.99; 0.999 ])

let analytic () =
  let st = Analytic.setup ~seed:7 () in
  let clean = phase (fun ph -> Analytic.run_phase st ph ~seconds:0.1) in
  expect "analytic: clean ops pass the checks" (clean.ops > 0 && clean.failed = 0);
  let planted =
    phase (fun ph ->
        Analytic.run_phase st ph ~seconds:0.1 ~tamper:(fun i (sr31, sr40) ->
            if i = 3 then (1.5, sr40) else (sr31, sr40)))
  in
  expect "analytic: an out-of-range SR is a failed op" (planted.ops > 3 && planted.failed = 1);
  let inverted =
    phase (fun ph ->
        Analytic.run_phase st ph ~seconds:0.1 ~tamper:(fun i (sr31, sr40) ->
            if i = 2 then (sr40, sr31 -. 0.1) else (sr31, sr40)))
  in
  expect "analytic: Eq. 40 below Eq. 31 is a failed op" (inverted.failed = 1);
  let other = Analytic.setup ~seed:8 () in
  let p_stars st = List.init 16 (fun i -> snd (Analytic.next_op st i)) in
  expect "analytic: a held-out seed draws other markets and points"
    (st.markets.(0).params <> other.markets.(0).params && p_stars st <> p_stars other)

let simulate () =
  let st = Simulate.setup ~seed:7 () in
  let tally = Simulate.new_tally () in
  let clean = phase (fun ph -> Simulate.run_phase st ph tally ~seconds:0.1) in
  expect "simulate: clean ops pass the checks" (clean.ops > 0 && clean.failed = 0);
  let planted =
    phase (fun ph ->
        Simulate.run_phase st ph (Simulate.new_tally ()) ~seconds:0.1 ~tamper:(fun _ mc ->
            { mc with Swap.Montecarlo.successes = mc.Swap.Montecarlo.successes + 1 }))
  in
  expect "simulate: a Monte-Carlo result that does not replay is a failed op"
    (planted.failed >= 1);
  let other = Simulate.setup ~seed:8 () in
  expect "simulate: a held-out seed draws other points"
    (Array.length other.points = Array.length st.points
    && st.points.(0).p_star <> other.points.(0).p_star)

let serve () =
  let path = Printf.sprintf "selftest-%d.sock" (Unix.getpid ()) in
  let srv = Serve_hot.setup ~seed:7 ~path () in
  let tr = Serve_hot.traffic ~seed:7 ~reference:(Serve_hot.reference srv) in
  let run tr =
    let conns = Serve_hot.open_conns ~path tr in
    let ph = Util.new_phase () in
    let sent = Serve_hot.run_client conns ph ~seconds:0.2 in
    Serve_hot.close_conns conns;
    (sent, ph)
  in
  let sent, clean = run tr in
  expect "serve-hot: every response matches the reference"
    (sent > 0 && clean.ops = sent && clean.failed = 0);
  let wrong = { tr with expected = Array.map Array.copy tr.expected } in
  (match wrong.expected.(1).(5) with
  | Serve_hot.Exact e -> wrong.expected.(1).(5) <- Serve_hot.Exact (e ^ " ")
  | Serve_hot.Stats_prefix _ -> expect "serve-hot: position 5 is a hot question" false);
  let _, planted = run wrong in
  expect "serve-hot: a planted wrong reference response is a failed op" (planted.failed >= 1);
  Serve.Server.shutdown srv.listener;
  let kinds seed =
    let hot = Serve_hot.hot_set ~seed in
    Array.map (fun (r : Serve.Request.t) -> Serve.Request.kind r) (Serve_hot.corpus ~seed ~hot 0)
  in
  let bytes seed =
    Array.map Serve.Request.encode (Serve_hot.corpus ~seed ~hot:(Serve_hot.hot_set ~seed) 0)
  in
  let a = bytes 7 and b = bytes 8 in
  let differ = ref 0 in
  Array.iteri (fun i x -> if x <> b.(i) then incr differ) a;
  expect "serve-hot: a held-out seed sends the same kinds with other inputs"
    (kinds 7 = kinds 8 && !differ > Array.length a * 9 / 10)

let () =
  Numerics.Pool.set_jobs 1;
  hist ();
  analytic ();
  simulate ();
  serve ();
  if !failures > 0 then exit 1
