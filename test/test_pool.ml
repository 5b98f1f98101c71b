(* The deterministic multicore layer: Numerics.Pool must preserve chunk
   order and propagate exceptions, and the parallel Monte Carlo must be
   bit-identical for any jobs count (seed-stable RNG fan-out). *)

open Numerics

let p = Swap.Params.defaults

(* --- pool --------------------------------------------------------------- *)

let test_map_chunks_order () =
  List.iter
    (fun jobs ->
      let parts =
        Pool.map_chunks ~jobs ~chunk_size:7 ~n:100
          (fun ~chunk ~lo ~hi -> (chunk, lo, hi))
      in
      Alcotest.(check int)
        (Printf.sprintf "chunk count (jobs=%d)" jobs)
        15 (Array.length parts);
      Array.iteri
        (fun i (chunk, lo, hi) ->
          Alcotest.(check int) "chunk index in order" i chunk;
          Alcotest.(check int) "lo" (i * 7) lo;
          Alcotest.(check int) "hi" (min 100 ((i * 7) + 7)) hi)
        parts)
    [ 1; 4 ]

let test_map_list_order () =
  let xs = List.init 200 string_of_int in
  let ys = Pool.map_list ~jobs:4 (fun s -> s ^ "!") xs in
  Alcotest.(check (list string)) "order preserved"
    (List.map (fun s -> s ^ "!") xs)
    ys

let test_reduce_matches_sequential () =
  let sum jobs =
    Pool.parallel_for_reduce ~jobs ~chunk_size:64 ~n:10_001 ~init:0
      ~body:(fun ~chunk:_ ~lo ~hi ->
        let s = ref 0 in
        for i = lo to hi - 1 do
          s := !s + i
        done;
        !s)
      ~combine:( + )
  in
  let expected = 10_001 * 10_000 / 2 in
  Alcotest.(check int) "jobs=1" expected (sum 1);
  Alcotest.(check int) "jobs=4" expected (sum 4)

let test_exception_propagation () =
  (* Chunks 2.. all fail; both the sequential and the parallel path must
     surface the lowest failing chunk's exception. *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "lowest failing chunk wins (jobs=%d)" jobs)
        (Failure "chunk 2")
        (fun () ->
          Pool.run_chunks ~jobs ~chunks:8 (fun chunk ->
              if chunk >= 2 then failwith (Printf.sprintf "chunk %d" chunk))))
    [ 1; 4 ]

let test_nested_submission () =
  (* A pool task fanning out its own chunked work must not deadlock and
     must stay deterministic. *)
  let rows =
    Pool.map_chunks ~jobs:4 ~chunk_size:1 ~n:6 (fun ~chunk ~lo:_ ~hi:_ ->
        Pool.parallel_for_reduce ~jobs:2 ~chunk_size:16 ~n:(100 * (chunk + 1))
          ~init:0
          ~body:(fun ~chunk:_ ~lo ~hi -> hi - lo)
          ~combine:( + ))
  in
  Alcotest.(check (list int))
    "nested reduces" [ 100; 200; 300; 400; 500; 600 ]
    (Array.to_list rows)

let test_set_jobs_rejects_nonpositive () =
  Alcotest.check_raises "jobs must be >= 1"
    (Invalid_argument "Pool.set_jobs: jobs must be >= 1") (fun () ->
      Pool.set_jobs 0)

(* --- rng fan-out -------------------------------------------------------- *)

let test_of_stream_reproducible_and_distinct () =
  let a = Rng.of_stream ~seed:42 ~stream:0 () in
  let a' = Rng.of_stream ~seed:42 ~stream:0 () in
  let b = Rng.of_stream ~seed:42 ~stream:1 () in
  let c = Rng.of_stream ~seed:43 ~stream:0 () in
  Alcotest.(check bool) "same (seed, stream) reproduces" true
    (Rng.bits64 a = Rng.bits64 a');
  let draws t = List.init 4 (fun _ -> Rng.bits64 t) in
  Alcotest.(check bool) "streams differ" false (draws a = draws b);
  Alcotest.(check bool) "seeds differ" false (draws a' = draws c)

(* --- Monte-Carlo determinism -------------------------------------------- *)

let check_same_result name (a : Swap.Montecarlo.result)
    (b : Swap.Montecarlo.result) =
  Alcotest.(check bool) (name ^ ": bit-identical result records") true (a = b)

let test_mc_run_jobs_invariant () =
  let policy = Swap.Agent.rational p ~p_star:2. in
  let run jobs =
    Swap.Montecarlo.run ~trials:4_096 ~seed:0x51ab ~jobs p ~p_star:2. ~policy
  in
  check_same_result "plain" (run 1) (run 4);
  (* and a trial count that does not divide the chunk size evenly *)
  let run_ragged jobs =
    Swap.Montecarlo.run ~trials:1_337 ~seed:7 ~jobs p ~p_star:2. ~policy
  in
  check_same_result "ragged tail" (run_ragged 1) (run_ragged 3)

let test_mc_collateral_jobs_invariant () =
  let c = Swap.Collateral.symmetric p ~q:0.5 in
  let run jobs =
    Swap.Montecarlo.run_collateral ~trials:4_096 ~seed:0x51ab ~jobs c
      ~p_star:2.
  in
  check_same_result "collateral" (run 1) (run 4)

let test_trials_override () =
  let policy = Swap.Agent.rational p ~p_star:2. in
  Swap.Montecarlo.set_trials_override (Some 512);
  let r = Swap.Montecarlo.run ~trials:9_999 p ~p_star:2. ~policy in
  Swap.Montecarlo.set_trials_override None;
  Alcotest.(check int) "override wins over ~trials" 512
    r.Swap.Montecarlo.trials;
  let r' = Swap.Montecarlo.run ~trials:1_024 p ~p_star:2. ~policy in
  Alcotest.(check int) "override cleared" 1_024 r'.Swap.Montecarlo.trials

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map_chunks preserves order" `Quick
            test_map_chunks_order;
          Alcotest.test_case "map_list preserves order" `Quick
            test_map_list_order;
          Alcotest.test_case "reduce matches sequential" `Quick
            test_reduce_matches_sequential;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested submission" `Quick test_nested_submission;
          Alcotest.test_case "set_jobs validation" `Quick
            test_set_jobs_rejects_nonpositive;
        ] );
      ( "rng",
        [
          Alcotest.test_case "of_stream reproducible + distinct" `Quick
            test_of_stream_reproducible_and_distinct;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "run: jobs=1 == jobs=4" `Quick
            test_mc_run_jobs_invariant;
          Alcotest.test_case "run_collateral: jobs=1 == jobs=4" `Quick
            test_mc_collateral_jobs_invariant;
          Alcotest.test_case "experiment-wide trials override" `Quick
            test_trials_override;
        ] );
    ]
