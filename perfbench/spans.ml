(* In-memory spans for the traced run.  A span is a name, a start and
   an end on the monotonic clock, the span that was open when it began
   (its parent), and the id of the op it belongs to.  Spans are kept in
   arrays that double when full, so every traced call is recorded, and
   are written out once, at the end. *)

type t = {
  mutable names : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable len : int;
  mutable current : int;
  mutable op_id : int;
}

let create () =
  let cap = 1 lsl 14 in
  {
    names = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    op = Array.make cap 0;
    len = 0;
    current = -1;
    op_id = 0;
  }

let set_op t id = t.op_id <- id
let length t = t.len

let grow t =
  let n = 2 * Array.length t.start in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0;
  t.parent <- extend t.parent (-1);
  t.op <- extend t.op 0

let with_span t name f =
  if t.len = Array.length t.start then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.names.(i) <- name;
  t.parent.(i) <- t.current;
  t.op.(i) <- t.op_id;
  let outer = t.current in
  t.current <- i;
  t.start.(i) <- Util.now_ns ();
  let close () =
    t.stop.(i) <- Util.now_ns ();
    t.current <- outer
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* Per-name duration and self time (the span minus the time its direct
   children cover), both in ns. *)
type agg = { calls : int; total : Util.Samples.t; self : Util.Samples.t }

let aggregate t =
  let child = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (t.stop.(i) - t.start.(i))
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let a =
      match Hashtbl.find_opt tbl t.names.(i) with
      | Some a -> a
      | None ->
        let a = (Util.Samples.create (), Util.Samples.create ()) in
        Hashtbl.replace tbl t.names.(i) a;
        a
    in
    let d = t.stop.(i) - t.start.(i) in
    Util.Samples.add (fst a) (float_of_int d);
    Util.Samples.add (snd a) (float_of_int (d - child.(i)))
  done;
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some (total, self) -> { calls = Util.Samples.length total; total; self }
    | None ->
      { calls = 0; total = Util.Samples.create (); self = Util.Samples.create () }

(* JSON lines, one span each, in start order. *)
let dump t ~path ~workload =
  let oc = open_out path in
  Printf.fprintf oc "{\"type\":\"spans\",\"workload\":%S,\"spans\":%d}\n" workload t.len;
  for i = 0 to t.len - 1 do
    Printf.fprintf oc
      "{\"i\":%d,\"op\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n" i
      t.op.(i) t.names.(i) t.start.(i) t.stop.(i) t.parent.(i)
  done;
  close_out oc

let opt sp name f = match sp with Some s -> with_span s name f | None -> f ()

(* Median ns per call of [f] over [batches] batches of [per_batch]
   calls, each batch in one span: the rungs shorter than a
   microsecond. *)
let per_call_ns t name ~batches ~per_batch f =
  Util.median_of
    (Array.init batches (fun _ ->
         let t0 = Util.now_ns () in
         with_span t name f;
         float_of_int (Util.now_ns () - t0) /. float_of_int per_batch))

let median_ns agg name = Util.percentile (Util.Samples.sorted (agg name).total) 0.5
let median_self_ns agg name = Util.percentile (Util.Samples.sorted (agg name).self) 0.5
