(* Topology-family generators for sweep studies.  All deterministic:
   the structured families are pure functions of the size, and the
   random family draws every bit from [Rng.of_stream ~seed ~stream:0],
   so a (family, size, seed) triple names one graph forever. *)

type family = Cycle | Star | Bridge | Random

let family_to_string = function
  | Cycle -> "cycle"
  | Star -> "star"
  | Bridge -> "bridge"
  | Random -> "random"

let all_families = [ Cycle; Star; Bridge; Random ]

let cycle n =
  Graph.make_exn ~n (List.init n (fun i -> (i, (i + 1) mod n)))

(* Hub-and-spoke: the leader trades with every other party directly —
   out and back — so every spoke sits at depth 1. *)
let star n =
  if n < 2 then invalid_arg "Topology.star: need at least 2 parties";
  Graph.make_exn ~n
    (List.concat_map (fun k -> [ (0, k); (k, 0) ]) (List.init (n - 1) (fun i -> i + 1)))

(* Two cycles sharing the leader: the leader bridges two otherwise
   disjoint trading rings, giving it two outgoing and two incoming
   legs and asymmetric depths. *)
let bridge n =
  if n < 5 then invalid_arg "Topology.bridge: need at least 5 parties";
  let m = n / 2 in
  (* Left ring: 0 -> 1 -> ... -> m -> 0. *)
  let left = (m, 0) :: List.init m (fun i -> (i, i + 1)) in
  (* Right ring: 0 -> m+1 -> ... -> n-1 -> 0. *)
  let right =
    (0, m + 1)
    :: (n - 1, 0)
    :: List.init (n - m - 2) (fun i -> (m + 1 + i, m + 2 + i))
  in
  Graph.make_exn ~n (left @ right)

(* A random Hamiltonian cycle (strong connectivity for free) plus
   [extra] additional distinct arcs.  The attempt budget bounds the
   rejection loop deterministically when the graph saturates. *)
let random_connected ~seed ~n ?(extra = n) () =
  if n < 2 then invalid_arg "Topology.random_connected: need >= 2 parties";
  let rng = Numerics.Rng.of_stream ~seed ~stream:0 () in
  let rest = Array.init (n - 1) (fun i -> i + 1) in
  Numerics.Rng.shuffle rng rest;
  let ring = Array.append [| 0 |] rest in
  let present = Hashtbl.create (4 * n) in
  let base =
    List.init n (fun i ->
        let a = (ring.(i), ring.((i + 1) mod n)) in
        Hashtbl.replace present a ();
        a)
  in
  let added = ref [] in
  let budget = ref ((10 * extra) + 50) in
  let remaining = ref extra in
  while !remaining > 0 && !budget > 0 do
    decr budget;
    let src = Numerics.Rng.int_below rng n in
    let dst = Numerics.Rng.int_below rng n in
    if src <> dst && not (Hashtbl.mem present (src, dst)) then begin
      Hashtbl.replace present (src, dst) ();
      added := (src, dst) :: !added;
      decr remaining
    end
  done;
  Graph.make_exn ~n (base @ !added)

let generate family ~n ~seed =
  match family with
  | Cycle -> cycle n
  | Star -> star n
  | Bridge -> bridge n
  | Random -> random_connected ~seed ~n ()
