(* Flight recorder: a bounded lock-free ring of the last N records.

   One logical ring of [capacity] slots, striped over 8 arrays so
   concurrent writers touch different cache lines.  Each push takes a
   global sequence number (one fetch-and-add) which alone determines
   the slot: stripe [seq mod 8], index [(seq / 8) mod per_stripe].
   Consecutive pushes therefore land on consecutive stripes, and a
   record is only overwritten by the push exactly [capacity] sequence
   numbers later — the ring always holds the last [capacity] completed
   pushes regardless of which domains produced them (a domain-keyed
   layout would cap a single-domain producer at 1/8 of the bound).

   Sequence numbers and records live in parallel arrays rather than
   [(int * 'a)] pairs: a push then allocates only the [Some] box, not
   a tuple as well — it runs once per served request, and everything
   stored in these major-heap arrays gets promoted.

   Readers are not synchronised against writers: a dump taken while
   pushes are in flight may miss a record mid-store or pair a slot's
   fresh sequence number with its previous record (pointer and
   immediate stores don't tear, so each half is always whole).  The
   intended use — dump on a handler crash, chaos-gate failure, or an
   explicit trigger — reads a quiesced or nearly-quiesced ring. *)

let stripes = 8

type 'a t = {
  per_stripe : int; (* power of two *)
  seqs : int array array; (* stripes x per_stripe, -1 = empty *)
  vals : 'a option array array;
  seq : int Atomic.t; (* global push count / next sequence number *)
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(capacity = 512) () =
  if capacity < stripes then
    invalid_arg "Obs.Recorder.create: capacity must be >= 8";
  let per_stripe = pow2_at_least (capacity / stripes) 1 in
  {
    per_stripe;
    seqs = Array.init stripes (fun _ -> Array.make per_stripe (-1));
    vals = Array.init stripes (fun _ -> Array.make per_stripe None);
    seq = Atomic.make 0;
  }

let capacity t = t.per_stripe * stripes

(* In-place variant for mutable records: instead of storing the
   caller's allocation (which the ring then retains across minor
   collections, promoting every record pushed at steady state), the
   slot keeps one record for its lifetime — [blank] creates it on the
   slot's first use, [copy v slot] overwrites its fields on every
   reuse.  After the slot warms up a push allocates and promotes
   nothing (pass top-level [blank]/[copy] so no closure is built
   either).  The caller's own record never enters the ring, so it may
   be pooled and reused the moment [push_copy] returns. *)
let push_copy t ~blank ~copy v =
  let seq = Atomic.fetch_and_add t.seq 1 in
  let stripe = seq land (stripes - 1)
  and i = (seq lsr 3) land (t.per_stripe - 1) in
  (match t.vals.(stripe).(i) with
  | Some r -> copy v r
  | None ->
    let r = blank () in
    copy v r;
    t.vals.(stripe).(i) <- Some r);
  t.seqs.(stripe).(i) <- seq

let pushed t = Atomic.get t.seq

let recorded t = min (pushed t) (capacity t)
let dropped t = pushed t - recorded t

let dump t =
  let out = ref [] in
  for stripe = 0 to stripes - 1 do
    for i = 0 to t.per_stripe - 1 do
      match t.vals.(stripe).(i) with
      | Some v when t.seqs.(stripe).(i) >= 0 ->
        out := (t.seqs.(stripe).(i), v) :: !out
      | _ -> ()
    done
  done;
  List.sort (fun (a, _) (b, _) -> compare (a : int) b) !out

let reset t =
  Array.iter (fun s -> Array.fill s 0 (Array.length s) (-1)) t.seqs;
  Array.iter (fun v -> Array.fill v 0 (Array.length v) None) t.vals;
  Atomic.set t.seq 0
