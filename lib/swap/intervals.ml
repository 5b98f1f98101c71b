type interval = { lo : float; hi : float }
type t = interval list

let empty = []

let of_list ivs =
  let sorted = List.sort (fun a b -> compare a.lo b.lo) ivs in
  let rec validate = function
    | [] -> ()
    | { lo; hi } :: rest ->
      if hi <= lo then invalid_arg "Intervals.of_list: degenerate interval";
      (match rest with
      | { lo = lo2; _ } :: _ when lo2 < hi ->
        invalid_arg "Intervals.of_list: overlapping intervals"
      | _ -> ());
      validate rest
  in
  validate sorted;
  sorted

let intervals t = t
let is_empty t = t = []
(* A direct walk: [List.exists] would build a closure over [x] per
   call, and [Agent.rational] asks once per Monte-Carlo trial. *)
let rec contains t x =
  match t with
  | [] -> false
  | { lo; hi } :: rest -> (lo < x && x < hi) || contains rest x

let of_sign_changes ~f ~roots ~domain_lo ~domain_hi =
  let roots = List.sort_uniq compare roots in
  let boundaries = (domain_lo :: roots) @ [ domain_hi ] in
  (* Probe each cell at a representative interior point. *)
  let probe lo hi =
    if hi = infinity then
      if lo <= 0. then 1. else lo *. 2.
    else if lo <= 0. then hi /. 2.
    else sqrt (lo *. hi) (* geometric midpoint suits price scales *)
  in
  let rec cells acc = function
    | lo :: (hi :: _ as rest) ->
      let acc = if f (probe lo hi) > 0. then { lo; hi } :: acc else acc in
      cells acc rest
    | _ -> List.rev acc
  in
  let raw = cells [] boundaries in
  (* Merge adjacent cells sharing a boundary (a root that does not
     actually separate signs, e.g. a tangency). *)
  let rec merge = function
    | a :: b :: rest when a.hi = b.lo -> merge ({ lo = a.lo; hi = b.hi } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  merge raw

let positive_log f ~a ~b =
  of_sign_changes ~f ~roots:(Numerics.Root.roots_log f ~a ~b) ~domain_lo:0.
    ~domain_hi:infinity

let hull = function
  | [] -> None
  | first :: _ as t -> Some (first.lo, (List.nth t (List.length t - 1)).hi)

let intersect a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | x :: xs, y :: ys ->
      let lo = max x.lo y.lo and hi = min x.hi y.hi in
      let acc = if lo < hi then { lo; hi } :: acc else acc in
      if x.hi <= y.hi then go xs b acc else go a ys acc
  in
  go a b []

let union a b =
  let all = List.sort (fun u v -> compare u.lo v.lo) (a @ b) in
  let rec go = function
    | x :: y :: rest when y.lo <= x.hi ->
      go ({ lo = x.lo; hi = max x.hi y.hi } :: rest)
    | x :: rest -> x :: go rest
    | [] -> []
  in
  go all

let to_string t =
  if t = [] then "{}"
  else
    String.concat " u "
      (List.map
         (fun { lo; hi } ->
           if hi = infinity then Printf.sprintf "(%.4g, inf)" lo
           else Printf.sprintf "(%.4g, %.4g)" lo hi)
         t)
