(* Tests for lib/swapgraph: topology generators (seed determinism and
   well-formedness), the Herlihy timelock assignment (including the
   closed form of the n-party cycle schedule), jobs invariance of the
   Monte-Carlo estimator and the topology sweep, the graph game, the
   route search and full protocol execution. *)

open Swapgraph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_float ?(tol = 1e-12) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

let p = Swap.Params.defaults

(* --- topology generators --------------------------------------------- *)

(* Everything that identifies a graph: parties, leader and arcs. *)
let shape g = (Graph.n g, Graph.leader g, Graph.arcs g)

let test_topology_determinism () =
  List.iter
    (fun seed ->
      let a = Topology.generate Topology.Random ~n:7 ~seed in
      let b = Topology.generate Topology.Random ~n:7 ~seed in
      check_bool "same seed, same graph" true (shape a = shape b))
    [ 0; 1; 42; 0x9af ];
  let shapes =
    List.map
      (fun seed -> shape (Topology.generate Topology.Random ~n:7 ~seed))
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let distinct = List.sort_uniq compare shapes in
  check_bool "different seeds explore different graphs" true
    (List.length distinct > 1);
  (* Structured families ignore the seed entirely. *)
  check_bool "cycle ignores seed" true
    (shape (Topology.generate Topology.Cycle ~n:5 ~seed:1)
    = shape (Topology.generate Topology.Cycle ~n:5 ~seed:99))

let test_topology_well_formed () =
  let cases =
    List.concat_map
      (fun family ->
        let sizes =
          match family with Topology.Bridge -> [ 5; 6; 8 ] | _ -> [ 2; 3; 6; 8 ]
        in
        List.concat_map
          (fun n -> List.map (fun seed -> (family, n, seed)) [ 0; 17 ])
          sizes)
      Topology.all_families
  in
  List.iter
    (fun (family, n, seed) ->
      let name = Topology.family_to_string family in
      let g = Topology.generate family ~n ~seed in
      check_int (Printf.sprintf "%s/%d: n" name n) n (Graph.n g);
      check_int (Printf.sprintf "%s/%d: leader at depth 0" name n) 0
        (Graph.depth g (Graph.leader g));
      Array.iteri
        (fun v d ->
          check_bool
            (Printf.sprintf "%s/%d: vertex %d reachable" name n v)
            true
            (d >= 0 && d <= Graph.max_depth g))
        (Graph.depths g);
      (* Every vertex both gives and receives (Graph.make enforces it,
         so the generators must have produced a valid arc set). *)
      for v = 0 to n - 1 do
        check_bool (Printf.sprintf "%s/%d: %d gives" name n v) true
          (Graph.out_arcs g v <> []);
        check_bool (Printf.sprintf "%s/%d: %d receives" name n v) true
          (Graph.in_arcs g v <> [])
      done)
    cases

let test_topology_shapes () =
  let c = Topology.cycle 5 in
  check_int "cycle: one arc per party" 5 (Array.length (Graph.arcs c));
  Array.iteri
    (fun v d -> check_int (Printf.sprintf "cycle: depth of %d" v) v d)
    (Graph.depths c);
  let s = Topology.star 6 in
  check_int "star: two arcs per spoke" 10 (Array.length (Graph.arcs s));
  for v = 1 to 5 do
    check_int (Printf.sprintf "star: spoke %d at depth 1" v) 1
      (Graph.depth s v)
  done;
  let b = Topology.bridge 7 in
  check_bool "bridge: leader bridges two rings" true
    (List.length (Graph.out_arcs b (Graph.leader b)) = 2);
  Alcotest.check_raises "bridge needs 5 parties"
    (Invalid_argument "Topology.bridge: need at least 5 parties") (fun () ->
      ignore (Topology.bridge 4))

(* --- Herlihy timelocks ------------------------------------------------ *)

(* The closed form of Herlihy's n-party cycle schedule at
   [Params.defaults] (tau_b = 4, eps_b = 1): locks confirm one per tau,
   claim j is submitted (n-1-j) eps after the lock phase and expires one
   tau later, and the happy path ends when the last claim (arc 0, the
   leader's outgoing leg) confirms at its expiry. *)
let test_timelock_matches_multihop () =
  let tau = 4. and eps = 1. in
  check_float "tau_b" tau p.Swap.Params.tau_b;
  check_float "eps_b" eps p.Swap.Params.eps_b;
  List.iter
    (fun n ->
      let s = Swap.Graphlink.schedule p (Topology.cycle n) in
      let nf = float_of_int n in
      check_int
        (Printf.sprintf "%d-cycle: one expiry per leg" n)
        n
        (Array.length s.Timelock.expiry);
      check_float
        (Printf.sprintf "%d-cycle: lock phase" n)
        (nf *. tau) s.Timelock.lock_phase_end;
      for j = 0 to n - 1 do
        check_float
          (Printf.sprintf "%d-cycle: expiry of leg %d" n j)
          (((nf +. 1.) *. tau) +. (float_of_int (n - 1 - j) *. eps))
          s.Timelock.expiry.(j)
      done;
      check_float
        (Printf.sprintf "%d-cycle: happy path" n)
        (((nf +. 1.) *. tau) +. (float_of_int (n - 1) *. eps))
        (s.Timelock.claim_time.(0) +. tau))
    [ 2; 3; 4; 5; 8 ]

let test_timelock_validates_across_families () =
  List.iter
    (fun family ->
      let n = match family with Topology.Bridge -> 7 | _ -> 6 in
      let g = Topology.generate family ~n ~seed:5 in
      List.iter
        (fun slack ->
          let s = Timelock.assign g ~tau:4. ~eps:1. ~slack in
          match Timelock.validate g s with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s slack=%g rejected: %s"
                (Topology.family_to_string family)
                slack e)
        [ 0.; 0.5; 2. ])
    Topology.all_families

let test_timelock_staggering () =
  let g = Topology.generate Topology.Random ~n:8 ~seed:23 in
  let s = Timelock.assign g ~tau:4. ~eps:1. ~slack:0.5 in
  (* Expiries strictly decrease as the sender sits deeper: a party can
     always claim its incoming leg after its outgoing leg was claimed. *)
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if Graph.depth g a.Graph.src < Graph.depth g b.Graph.src then
            check_bool
              (Printf.sprintf "expiry(%d) > expiry(%d)" i j)
              true
              (s.Timelock.expiry.(i) > s.Timelock.expiry.(j)))
        (Graph.arcs g))
    (Graph.arcs g);
  Alcotest.check_raises "tau must be positive"
    (Invalid_argument "Timelock.assign: tau must be > 0") (fun () ->
      ignore (Timelock.assign g ~tau:0. ~eps:1.))

(* --- Monte Carlo and sweep: jobs invariance --------------------------- *)

let test_mc_jobs_invariance () =
  let g = Topology.generate Topology.Random ~n:6 ~seed:3 in
  let s = Swap.Graphlink.schedule p g in
  let policy = Swap.Graphlink.uniform_policy p ~p_star:2. in
  let r1 = Mc.estimate ~trials:2000 ~seed:11 ~jobs:1 g s policy in
  let r4 = Mc.estimate ~trials:2000 ~seed:11 ~jobs:4 g s policy in
  check_int "trials" r1.Mc.trials r4.Mc.trials;
  check_int "successes identical" r1.Mc.success r4.Mc.success;
  check_float "rate identical" r1.Mc.rate r4.Mc.rate;
  check_int "reveal aborts identical" r1.Mc.aborted_reveal
    r4.Mc.aborted_reveal;
  Array.iteri
    (fun i c ->
      check_int (Printf.sprintf "lock aborts at %d" i) c
        r4.Mc.aborted_lock.(i))
    r1.Mc.aborted_lock;
  check_bool "rate is a probability" true (r1.Mc.rate >= 0. && r1.Mc.rate <= 1.)

let test_sweep_jobs_invariance () =
  let specs =
    [
      { Sweep.family = Topology.Cycle; size = 4; slack = 0.; topo_seed = 0 };
      { Sweep.family = Topology.Star; size = 5; slack = 1.; topo_seed = 0 };
      { Sweep.family = Topology.Bridge; size = 7; slack = 0.5; topo_seed = 0 };
      { Sweep.family = Topology.Random; size = 6; slack = 0.; topo_seed = 1 };
      { Sweep.family = Topology.Random; size = 6; slack = 0.; topo_seed = 2 };
      { Sweep.family = Topology.Random; size = 8; slack = 2.; topo_seed = 3 };
    ]
  in
  let run jobs =
    Sweep.run ~jobs ~trials:500 ~seed:7 ~tau:p.Swap.Params.tau_b
      ~eps:p.Swap.Params.eps_b
      ~policy:(Swap.Graphlink.depth_aware_policy p ~p_star:2.)
      ~payoffs:(Swap.Graphlink.payoffs p) specs
  in
  let r1 = run 1 and r4 = run 4 in
  check_int "row count" (List.length specs) (List.length r1);
  List.iter2
    (fun (a : Sweep.row) (b : Sweep.row) ->
      let tag =
        Printf.sprintf "%s/%d/seed=%d"
          (Topology.family_to_string a.Sweep.spec.Sweep.family)
          a.Sweep.spec.Sweep.size a.Sweep.spec.Sweep.topo_seed
      in
      check_bool (tag ^ ": same graph") true
        (shape a.Sweep.graph = shape b.Sweep.graph);
      check_float (tag ^ ": sr") a.Sweep.sr b.Sweep.sr;
      check_float (tag ^ ": exposure") a.Sweep.max_exposure_hours
        b.Sweep.max_exposure_hours;
      check_bool (tag ^ ": equilibrium") a.Sweep.equilibrium_success
        b.Sweep.equilibrium_success;
      check_bool (tag ^ ": deviator") true
        (a.Sweep.deviator = b.Sweep.deviator);
      check_bool (tag ^ ": sr is a probability") true
        (a.Sweep.sr >= 0. && a.Sweep.sr <= 1.))
    r1 r4

(* --- graph game ------------------------------------------------------- *)

let test_game_conforming_equilibrium () =
  List.iter
    (fun (name, g) ->
      let s = Swap.Graphlink.schedule p g in
      let a = Game.analyse g (Swap.Graphlink.payoffs p g s) in
      check_bool (name ^ ": conforming play survives") true a.Game.success;
      check_bool (name ^ ": no deviator") true (a.Game.deviator = None);
      Array.iteri
        (fun v eq ->
          check_float
            (Printf.sprintf "%s: equilibrium value of %d" name v)
            a.Game.conforming.(v) eq)
        a.Game.equilibrium)
    [ ("cycle-4", Topology.cycle 4); ("star-5", Topology.star 5) ]

let test_game_deviation_under_griefing_cost () =
  (* Crank the time-value rate: locked collateral now costs more than
     the success premium pays, so some party rationally exits. *)
  let expensive = Swap.Params.with_r_bob p 5. in
  let g = Topology.cycle 4 in
  let s = Swap.Graphlink.schedule expensive g in
  let a = Game.analyse g (Swap.Graphlink.payoffs expensive g s) in
  check_bool "conforming play collapses" false a.Game.success;
  check_bool "a deviator is identified" true (a.Game.deviator <> None)

let test_griefing_value_scales_with_exposure () =
  let g = Topology.cycle 5 in
  let s = Swap.Graphlink.schedule p g in
  let exposure = Timelock.exposure_hours g s in
  let griefing = Swap.Graphlink.griefing_value p g s in
  Array.iteri
    (fun v e ->
      check_float
        (Printf.sprintf "griefing(%d) = r * exposure" v)
        (p.Swap.Params.bob.Swap.Params.r *. e)
        griefing.(v))
    exposure

(* --- route search ----------------------------------------------------- *)

let universe =
  Router.make_exn
    [
      { Router.src = "A"; dst = "B"; sr = 0.9; rate = 2. };
      { Router.src = "B"; dst = "C"; sr = 0.9; rate = 3. };
      { Router.src = "A"; dst = "C"; sr = 0.5; rate = 5. };
    ]

let test_router_best_path () =
  (match Router.best universe ~from_tok:"A" ~to_tok:"C" ~max_hops:2 with
  | Ok { Router.hops; sr; rate } ->
      check_bool "two-hop route wins on SR product" true
        (hops = [ "A"; "B"; "C" ]);
      check_float "sr product" 0.81 sr;
      check_float "rate product" 6. rate
  | Error _ -> Alcotest.fail "expected a route");
  match Router.best universe ~from_tok:"A" ~to_tok:"C" ~max_hops:1 with
  | Ok { Router.hops; sr; _ } ->
      check_bool "hop bound forces the direct edge" true (hops = [ "A"; "C" ]);
      check_float "direct sr" 0.5 sr
  | Error _ -> Alcotest.fail "expected the direct route"

let test_router_tie_breaking () =
  (* Two 2-hop paths with identical SR products: the lexicographically
     smaller token path must win, deterministically. *)
  let u =
    Router.make_exn
      [
        { Router.src = "A"; dst = "B"; sr = 0.9; rate = 1. };
        { Router.src = "B"; dst = "Z"; sr = 0.9; rate = 1. };
        { Router.src = "A"; dst = "C"; sr = 0.9; rate = 1. };
        { Router.src = "C"; dst = "Z"; sr = 0.9; rate = 1. };
      ]
  in
  match Router.best u ~from_tok:"A" ~to_tok:"Z" ~max_hops:3 with
  | Ok { Router.hops; _ } ->
      check_bool "lexicographic tie break" true (hops = [ "A"; "B"; "Z" ])
  | Error _ -> Alcotest.fail "expected a route"

let test_router_errors () =
  (match Router.best universe ~from_tok:"DOGE" ~to_tok:"C" ~max_hops:4 with
  | Error (Router.Unknown_token "DOGE") -> ()
  | _ -> Alcotest.fail "expected Unknown_token DOGE");
  (match Router.best universe ~from_tok:"C" ~to_tok:"A" ~max_hops:4 with
  | Error Router.No_route -> ()
  | _ -> Alcotest.fail "expected No_route against the edge direction");
  (match Router.best universe ~from_tok:"A" ~to_tok:"A" ~max_hops:4 with
  | Error Router.No_route -> ()
  | _ -> Alcotest.fail "expected No_route for from = to");
  match Router.make [ { Router.src = "A"; dst = "B"; sr = 1.5; rate = 2. } ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "SR above 1 must be rejected"

let test_default_universe_probabilities () =
  let u = Swap.Graphlink.default_universe () in
  check_bool "universe is nonempty" true (Router.edges u <> []);
  List.iter
    (fun { Router.src; dst; sr; rate } ->
      check_bool (Printf.sprintf "%s->%s: sr in [0,1]" src dst) true
        (sr >= 0. && sr <= 1.);
      check_bool (Printf.sprintf "%s->%s: positive rate" src dst) true
        (rate > 0.))
    (Router.edges u)

(* --- full protocol execution ------------------------------------------ *)

let test_exec_happy_path () =
  let g = Topology.star 4 in
  let s = Swap.Graphlink.schedule p g in
  let r = Exec.run g s in
  check_bool "star executes to Success" true (r.Exec.outcome = Exec.Success);
  Array.iteri
    (fun v (out, inc) ->
      check_bool (Printf.sprintf "party %d pays out" v) true (out < 0.);
      check_bool (Printf.sprintf "party %d is paid" v) true (inc > 0.))
    r.Exec.deltas;
  check_bool "trace is populated" true (r.Exec.trace <> [])

let test_exec_abort () =
  let g = Topology.cycle 4 in
  let s = Swap.Graphlink.schedule p g in
  let decisions v ~price:_ = if v = 2 then Exec.Stop else Exec.Cont in
  let r = Exec.run ~decisions g s in
  check_bool "party 2 aborts the lock phase" true
    (r.Exec.outcome = Exec.Abort_at_lock 2);
  Array.iter
    (fun (out, inc) ->
      check_float "no asset moved out" 0. out;
      check_float "no asset moved in" 0. inc)
    r.Exec.deltas

let () =
  Alcotest.run "swapgraph"
    [
      ( "topology",
        [
          Alcotest.test_case "seed determinism" `Quick
            test_topology_determinism;
          Alcotest.test_case "well-formedness" `Quick
            test_topology_well_formed;
          Alcotest.test_case "family shapes" `Quick test_topology_shapes;
        ] );
      ( "timelock",
        [
          Alcotest.test_case "matches Multihop on cycles" `Quick
            test_timelock_matches_multihop;
          Alcotest.test_case "validates across families" `Quick
            test_timelock_validates_across_families;
          Alcotest.test_case "staggered expiries" `Quick
            test_timelock_staggering;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "mc jobs invariance" `Quick
            test_mc_jobs_invariance;
          Alcotest.test_case "sweep jobs invariance" `Quick
            test_sweep_jobs_invariance;
        ] );
      ( "game",
        [
          Alcotest.test_case "conforming equilibrium" `Quick
            test_game_conforming_equilibrium;
          Alcotest.test_case "deviation under griefing cost" `Quick
            test_game_deviation_under_griefing_cost;
          Alcotest.test_case "griefing value" `Quick
            test_griefing_value_scales_with_exposure;
        ] );
      ( "router",
        [
          Alcotest.test_case "best path" `Quick test_router_best_path;
          Alcotest.test_case "tie breaking" `Quick test_router_tie_breaking;
          Alcotest.test_case "errors" `Quick test_router_errors;
          Alcotest.test_case "default universe" `Quick
            test_default_universe_probabilities;
        ] );
      ( "exec",
        [
          Alcotest.test_case "happy path" `Quick test_exec_happy_path;
          Alcotest.test_case "abort at lock" `Quick test_exec_abort;
        ] );
    ]
