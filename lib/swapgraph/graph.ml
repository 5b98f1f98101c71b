(* Swap digraphs in the sense of Herlihy (PODC 2018): parties are
   vertices, each arc is one HTLC transfer from its source to its
   destination, and one distinguished vertex — the leader — holds the
   hash preimage.  The protocol is well formed when the digraph is
   strongly connected and every party both gives and receives, so the
   secret's revelation can propagate a claim to every arc.

   Arcs are kept in one canonical order (sorted by (src, dst)); every
   consumer — timelock assignment, execution, Monte Carlo, JSON
   emission — iterates that order, which is what makes whole-sweep
   results reproducible byte-for-byte. *)

type arc = { src : int; dst : int }

type t = {
  n : int;
  leader : int;
  arcs : arc array;
  depths : int array;
  max_depth : int;
  out_by_vertex : int list array;
  in_by_vertex : int list array;
}

let n t = t.n
let leader t = t.leader
let arcs t = t.arcs
let depth t v = t.depths.(v)
let depths t = Array.copy t.depths
let max_depth t = t.max_depth
let out_arcs t v = t.out_by_vertex.(v)
let in_arcs t v = t.in_by_vertex.(v)

let compare_arc a b =
  match compare a.src b.src with 0 -> compare a.dst b.dst | c -> c

(* BFS from [leader] along forward arcs; -1 marks unreachable. *)
let bfs_depths ~n ~leader out_by_vertex arcs =
  let d = Array.make n (-1) in
  d.(leader) <- 0;
  let q = Queue.create () in
  Queue.push leader q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun ai ->
        let v = arcs.(ai).dst in
        if d.(v) < 0 then begin
          d.(v) <- d.(u) + 1;
          Queue.push v q
        end)
      out_by_vertex.(u)
  done;
  d

let make ?(leader = 0) ~n pairs =
  if n < 2 then Error "graph: need at least 2 parties"
  else if leader < 0 || leader >= n then Error "graph: leader out of range"
  else begin
    let arcs =
      pairs |> List.map (fun (src, dst) -> { src; dst }) |> Array.of_list
    in
    Array.sort compare_arc arcs;
    let dup = ref None and bad = ref None in
    Array.iteri
      (fun i a ->
        if a.src < 0 || a.src >= n || a.dst < 0 || a.dst >= n then
          bad := Some a
        else if a.src = a.dst then bad := Some a
        else if i > 0 && compare_arc arcs.(i - 1) a = 0 then dup := Some a)
      arcs;
    match (!bad, !dup) with
    | Some a, _ -> Error (Printf.sprintf "graph: invalid arc %d->%d" a.src a.dst)
    | _, Some a ->
      Error (Printf.sprintf "graph: duplicate arc %d->%d" a.src a.dst)
    | None, None ->
      let out_by_vertex = Array.make n [] and in_by_vertex = Array.make n [] in
      (* Reverse iteration keeps each per-vertex list ascending. *)
      for i = Array.length arcs - 1 downto 0 do
        let a = arcs.(i) in
        out_by_vertex.(a.src) <- i :: out_by_vertex.(a.src);
        in_by_vertex.(a.dst) <- i :: in_by_vertex.(a.dst)
      done;
      let missing = ref None in
      for v = n - 1 downto 0 do
        if out_by_vertex.(v) = [] || in_by_vertex.(v) = [] then
          missing := Some v
      done;
      (match !missing with
      | Some v ->
        Error
          (Printf.sprintf "graph: party %d must both give and receive" v)
      | None ->
        let depths = bfs_depths ~n ~leader out_by_vertex arcs in
        if Array.exists (fun d -> d < 0) depths then
          Error "graph: not every party is reachable from the leader"
        else begin
          (* Strong connectivity: everyone must also reach the leader
             (BFS on the transposed graph). *)
          let rev_out = Array.make n [] in
          Array.iteri
            (fun i a -> rev_out.(a.dst) <- i :: rev_out.(a.dst))
            arcs;
          let back =
            bfs_depths ~n ~leader rev_out
              (Array.map (fun a -> { src = a.dst; dst = a.src }) arcs)
          in
          if Array.exists (fun d -> d < 0) back then
            Error "graph: not strongly connected"
          else
            Ok
              {
                n;
                leader;
                arcs;
                depths;
                max_depth = Array.fold_left max 0 depths;
                out_by_vertex;
                in_by_vertex;
              }
        end)
  end

let make_exn ?leader ~n pairs =
  match make ?leader ~n pairs with
  | Ok g -> g
  | Error msg -> invalid_arg ("Swapgraph.Graph.make: " ^ msg)

(* Vertices in canonical decision order: by leader distance, then
   index.  The leader comes first (depth 0); execution and the game
   reduction both walk this order. *)
let decision_order t =
  let vs = Array.init t.n (fun v -> v) in
  Array.sort
    (fun u v ->
      match compare t.depths.(u) t.depths.(v) with
      | 0 -> compare u v
      | c -> c)
    vs;
  vs
