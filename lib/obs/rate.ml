(* Windowed event-rate meter: a ring of per-second counting slots over
   the Monotonic clock.

   [observe_at] stamps the given second into its ring slot and bumps the
   slot counter; [per_second] sums the slots whose stamps fall inside
   the requested trailing window.  Slot reset on second rollover is a
   benign race (two domains entering a fresh second may both zero the
   slot and one increment can be lost) — rates are telemetry, and the
   cumulative [total] counter stays exact. *)

type t = {
  slots : int; (* ring length in seconds, power of two *)
  stamps : int Atomic.t array; (* absolute second held by each slot *)
  counts : int Atomic.t array;
  total : int Atomic.t;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(window_s = 64) () =
  if window_s < 1 then invalid_arg "Obs.Rate.create: window must be >= 1";
  let slots = pow2_at_least window_s 1 in
  {
    slots;
    stamps = Array.init slots (fun _ -> Atomic.make (-1));
    counts = Array.init slots (fun _ -> Atomic.make 0);
    total = Atomic.make 0;
  }

let second_of_ns ns = ns / 1_000_000_000

let observe_at t ~now_ns =
  let sec = second_of_ns now_ns in
  let slot = sec land (t.slots - 1) in
  if Atomic.get t.stamps.(slot) <> sec then begin
    (* Rollover: this slot last counted a second >= [slots] ago. *)
    Atomic.set t.counts.(slot) 0;
    Atomic.set t.stamps.(slot) sec
  end;
  Atomic.incr t.counts.(slot);
  Atomic.incr t.total

let total t = Atomic.get t.total

let events_in_window t ~window_s ~now_ns =
  let window_s = if window_s < 1 then 1 else min window_s t.slots in
  let sec = second_of_ns now_ns in
  let n = ref 0 in
  for back = 0 to window_s - 1 do
    let s = sec - back in
    if s >= 0 then begin
      let slot = s land (t.slots - 1) in
      if Atomic.get t.stamps.(slot) = s then
        n := !n + Atomic.get t.counts.(slot)
    end
  done;
  !n

let per_second_at t ~window_s ~now_ns =
  float_of_int (events_in_window t ~window_s ~now_ns)
  /. float_of_int (max 1 (min window_s t.slots))

let per_second t ~window_s =
  per_second_at t ~window_s ~now_ns:(Monotonic.now_int_ns ())

let reset t =
  Array.iter (fun a -> Atomic.set a (-1)) t.stamps;
  Array.iter (fun a -> Atomic.set a 0) t.counts;
  Atomic.set t.total 0
