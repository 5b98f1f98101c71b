(* Multi-party cyclic swaps (Herlihy [28]): how the 2-party analysis
   scales with the number of hops.  Each n-party swap is the n-cycle
   swap graph (party i pays party i+1 mod n) under the Herlihy
   schedule, on identical legs calibrated from the 2-party parameters. *)

let name = "multihop"
let description = "Cyclic n-party swaps: lock time and SR vs hop count"

let outcome_to_string = function
  | Swapgraph.Exec.Success -> "success"
  | Swapgraph.Exec.Abort_at_lock i -> Printf.sprintf "abort@lock%d" i
  | Swapgraph.Exec.Abort_no_reveal -> "abort (no reveal)"
  | Swapgraph.Exec.Anomalous s -> "ANOMALOUS: " ^ s

let p = Swap.Params.defaults

let scaling_block () =
  let rows =
    List.map
      (fun n ->
        let g = Swapgraph.Topology.cycle n in
        let s = Swap.Graphlink.schedule p g in
        let mc =
          Swapgraph.Mc.estimate ~trials:30_000 g s
            (Swap.Graphlink.uniform_policy p ~p_star:2.)
        in
        [
          string_of_int n;
          Render.fmt s.Swapgraph.Timelock.lock_phase_end;
          (* The happy path ends when the cascade's last claim, party 1's
             on the leader's outgoing arc 0, confirms at its expiry. *)
          Render.fmt s.Swapgraph.Timelock.expiry.(0);
          Render.fmt mc.Swapgraph.Mc.rate;
          Render.fmt (mc.Swapgraph.Mc.rate ** (1. /. float_of_int n));
        ])
      [ 2; 3; 4; 5; 6; 8 ]
  in
  Render.table
    ~header:
      [ "parties"; "lock phase (h)"; "happy path (h)"; "SR (all rational)";
        "per-hop SR" ]
    ~rows

let failure_modes_block () =
  let g = Swapgraph.Topology.cycle 3 in
  let s = Swap.Graphlink.schedule p g in
  (* Exec.run's default prices hold every leg at 2, the agreed rate. *)
  let run ?decisions ?offline () = Swapgraph.Exec.run ?decisions ?offline g s in
  let declines v u ~price:_ =
    if u = v then Swapgraph.Exec.Stop else Swapgraph.Exec.Cont
  in
  let rows =
    [
      ("all honest", run ());
      ("party 1 declines to lock", run ~decisions:(declines 1) ());
      ("leader withholds the secret", run ~decisions:(declines 0) ());
      ("party 2 crashes mid-cascade", run ~offline:[ (2, 10.) ] ());
    ]
  in
  Render.table
    ~header:[ "scenario"; "outcome"; "per-party (out, in) deltas" ]
    ~rows:
      (List.map
         (fun (label, r) ->
           [
             label;
             outcome_to_string r.Swapgraph.Exec.outcome;
             String.concat " "
               (Array.to_list
                  (Array.mapi
                     (fun i (o, inc) ->
                       Printf.sprintf "p%d(%+g,%+g)" i o inc)
                     r.Swapgraph.Exec.deltas));
           ])
         rows)

let run () =
  Render.section "Scaling with the number of parties"
  ^ scaling_block ()
  ^ "\nEvery hop adds one more rational exit and one more confirmation of\n\
     lock-up, so the cycle's success rate decays roughly geometrically\n\
     (the per-hop rate also worsens because later deciders face longer\n\
     price diffusion).  Two-party swaps are the only robust regime of\n\
     the pure-HTLC design.\n\n"
  ^ Render.section "Failure modes on the live 3-chain simulator"
  ^ failure_modes_block ()
  ^ "\nDeclines during the lock phase and a withheld secret refund everyone\n\
     (atomic).  A crash mid-cascade, however, strands the crashed party:\n\
     their outgoing leg is claimed while their incoming claim window\n\
     expires -- the multi-hop version of the 2-party crash anomaly.\n"
