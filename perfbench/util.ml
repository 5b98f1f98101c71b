(* Shared pieces of the benchmark: the clock, sample buffers and the
   latency histogram, percentiles, peak RSS, measured phases, the ladder
   tables, and the result record every workload returns. *)

let now_ns () = Obs.Monotonic.now_int_ns ()
let elapsed_s t0 = float_of_int (now_ns () - t0) *. 1e-9

(* A growable float buffer, for span durations. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len

  let sorted t =
    let a = to_array t in
    Array.sort Float.compare a;
    a

  let mean t =
    if t.len = 0 then nan
    else begin
      let s = ref 0. in
      for i = 0 to t.len - 1 do
        s := !s +. t.data.(i)
      done;
      !s /. float_of_int t.len
    end
end

(* Nearest-rank percentile of an ascending array, [q] in [0, 1]. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (r - 1)))

let median_of xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  percentile a 0.5

(* The mean of the middle half of [xs] (at least 4 values). *)
let interquartile_mean xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let k = n / 4 in
  let s = ref 0. in
  for i = k to n - k - 1 do
    s := !s +. a.(i)
  done;
  !s /. float_of_int (n - (2 * k))

(* The highest of p99, p99.9, p99.99, ... that still has at least ten
   samples above it; [None] below 1000 samples. *)
let deepest_tail n =
  let rec go q best =
    if float_of_int n *. (1. -. q) >= 10. then go (1. -. ((1. -. q) /. 10.)) (Some q)
    else best
  in
  go 0.99 None

let tail_label q = Printf.sprintf "p%g" (Float.round (q *. 1e6) /. 1e4)

(* Peak resident set (VmHWM) in MB, from /proc on Linux. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one run of a workload reports: ops attempted and failed, and its
   metrics. *)
type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* A JSON number with all its digits.  JSON has no non-finite numbers,
   so those are written as null. *)
let json_num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let result_json ~correct r =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_num m.value)
          m.unit_)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct r.attempted r.failed (String.concat ", " ms)

let uniform rng lo hi = lo +. ((hi -. lo) *. Numerics.Rng.uniform rng)

(* Latencies in µs, counted in a log-linear histogram with 128 buckets
   per power of two (neighbouring bounds 0.55% apart), so a phase's
   memory is fixed however many ops it completes and the benchmark's
   own buffers do not grow the peak RSS it reports. *)
module Hist = struct
  let per_octave = 128
  let min_exp = -10
  let buckets = 40 * per_octave

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make buckets 0; n = 0 }

  let clear t =
    Array.fill t.counts 0 buckets 0;
    t.n <- 0

  (* x = m 2^e with m in [0.5, 1): octave e, then 128 linear steps of m. *)
  let index x =
    let m, e = Float.frexp x in
    let i = ((e - min_exp) * per_octave) + int_of_float (((2. *. m) -. 1.) *. float_of_int per_octave) in
    max 0 (min (buckets - 1) i)

  let lower i =
    Float.ldexp
      (1. +. (float_of_int (i mod per_octave) /. float_of_int per_octave))
      ((i / per_octave) + min_exp - 1)

  let add t x =
    let i = index x in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  (* Nearest-rank percentile, placed inside its bucket by its rank there. *)
  let percentile t q =
    if t.n = 0 then nan
    else begin
      let r = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
      let rec go i seen =
        let c = t.counts.(i) in
        if seen + c >= r || i = buckets - 1 then
          let lo = lower i and hi = lower (i + 1) in
          lo +. ((hi -. lo) *. (float_of_int (r - seen) -. 0.5) /. float_of_int (max 1 c))
        else go (i + 1) (seen + c)
      in
      go 0 0
    end
end

(* Host and runtime counters, read at the start and end of a measured
   phase and printed as diagnostics: the CPU ticks stolen by the
   hypervisor and spent busy, over all CPUs (0 where /proc/stat cannot be
   read), and the GC's collections and allocated words. *)
type counters = { steal : int; busy : int; minor : int; major : int; words : float }

let counters () =
  let steal, busy =
    match open_in "/proc/stat" with
    | exception Sys_error _ -> (0, 0)
    | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: user :: nice :: system :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
        (int_of_string steal, int_of_string user + int_of_string nice + int_of_string system)
      | _ -> (0, 0))
  in
  let g = Gc.quick_stat () in
  { steal; busy; minor = g.minor_collections; major = g.major_collections; words = g.minor_words }

(* One measured phase of a closed loop: op and failure counts, wall
   time, the latency of every op, per one-second slice its ops/s, p50
   and p90, and the counters at its start. *)
type phase = {
  all : Hist.t;
  slice : Hist.t;
  mutable slices : (float * float * float) list;  (** newest first *)
  mutable slice_t0 : int;
  mutable ops : int;
  mutable failed : int;
  mutable wall_s : float;
  mutable at_start : counters;
}

let new_phase () =
  { all = Hist.create (); slice = Hist.create (); slices = []; slice_t0 = 0; ops = 0; failed = 0;
    wall_s = 0.; at_start = counters () }

let rate ph = float_of_int ph.ops /. ph.wall_s
let slice_ns = 1_000_000_000

let start_slices ph =
  ph.at_start <- counters ();
  ph.slice_t0 <- now_ns ();
  Hist.clear ph.slice

(* Count one op completed at [t] after [lat_us]. *)
let completed ph t ~lat_us =
  Hist.add ph.all lat_us;
  Hist.add ph.slice lat_us;
  ph.ops <- ph.ops + 1;
  if t - ph.slice_t0 >= slice_ns then begin
    let s = ph.slice in
    ph.slices <-
      ( float_of_int s.n *. 1e9 /. float_of_int (t - ph.slice_t0),
        Hist.percentile s 0.5,
        Hist.percentile s 0.9 )
      :: ph.slices;
    ph.slice_t0 <- t;
    Hist.clear s
  end

(* The six end-to-end metrics.  Throughput and the latency percentiles
   are taken per one-second slice of the phase and reported at the
   slower quartile of the slices: [ops_per_s] is the throughput that
   three slices in four reached, and the latencies are the p50 and p90
   that three slices in four stayed within.  Other tenants of a shared
   host only ever slow the program, an op by up to ~1.6x, in spells of
   milliseconds to minutes, and the share of fast seconds drifts from
   run to run.  The slower quartile sits in the slow spells whenever
   they fill a quarter of the run, so it follows that share less than a
   mean or median over the slices does (README.md, Steadiness).  The
   interquartile means over the slices and the phase-wide figures are
   printed alongside. *)
let end_to_end ?attempted ph ~setup_s =
  let c0 = ph.at_start and c1 = counters () in
  let attempted = Option.value attempted ~default:ph.ops in
  let slices = Array.of_list ph.slices in
  let enough = Array.length slices >= 4 in
  let over_slices f q whole =
    if enough then (
      let a = Array.map f slices in
      Array.sort Float.compare a;
      percentile a q)
    else whole
  in
  let pct = Hist.percentile ph.all in
  let rate_of (r, _, _) = r and p50_of (_, p, _) = p and p90_of (_, _, p) = p in
  let ops_s = over_slices rate_of 0.25 (rate ph) in
  let p50 = over_slices p50_of 0.75 (pct 0.5) in
  let p90 = over_slices p90_of 0.75 (pct 0.9) in
  let n = ph.all.n in
  Printf.printf "slower quartile of %d one-second slices: %.2f ops/s, p50 %.3f us, p90 %.3f us\n"
    (Array.length slices) ops_s p50 p90;
  if enough then begin
    let iqm f = interquartile_mean (Array.map f slices) in
    Printf.printf "interquartile mean of the slices: %.2f ops/s, p50 %.3f us, p90 %.3f us\n"
      (iqm rate_of) (iqm p50_of) (iqm p90_of)
  end;
  Printf.printf "whole phase: %.2f ops/s; latency over %d samples: p50 %.3f us, p90 %.3f us, p99 %.3f us%s\n"
    (rate ph) n (pct 0.5) (pct 0.9) (pct 0.99)
    (match deepest_tail n with
    | Some q when q > 0.99 -> Printf.sprintf ", %s %.3f us" (tail_label q) (pct q)
    | _ -> "");
  Printf.printf
    "over the phase: %d ticks stolen, %d busy (all CPUs); %d minor and %d major collections, %.0f \
     words allocated per op\n"
    (c1.steal - c0.steal) (c1.busy - c0.busy) (c1.minor - c0.minor) (c1.major - c0.major)
    ((c1.words -. c0.words) /. float_of_int (max 1 ph.ops));
  Printf.printf "failed_frac %g (%d of %d ops)\n"
    (float_of_int ph.failed /. float_of_int (max 1 attempted))
    ph.failed attempted;
  {
    attempted;
    failed = ph.failed;
    metrics =
      [
        metric "ops_per_s" "op/s" ops_s;
        metric "latency_p50_us" "us" p50;
        metric "latency_p90_us" "us" p90;
        metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" (peak_rss_mb ());
        metric "ok_frac" "ratio"
          (float_of_int (attempted - ph.failed) /. float_of_int (max 1 attempted));
      ];
  }

(* Untraced and traced blocks of one op stream, alternated so drift in
   the host hits both alike; returns both phases and the tracing
   overhead in percent of untraced ops/s. *)
let alternate ~seconds ~block run_block =
  let plain = new_phase () and traced = new_phase () in
  let t_start = now_ns () in
  let n = ref 0 in
  while elapsed_s t_start < seconds do
    if !n mod 2 = 0 then run_block ~traced:false plain ~seconds:block
    else run_block ~traced:true traced ~seconds:block;
    incr n
  done;
  (plain, traced, 100. *. (1. -. (rate traced /. rate plain)))

type rung = { r_name : string; r_value : float; r_unit : string; r_self : float }

let rung r_name r_unit ?self r_value =
  { r_name; r_value; r_unit; r_self = Option.value self ~default:r_value }

(* The per-workload ladder table: each rung's value, its self time in
   the same unit, and its ratio to the rung below (compared in ns). *)
let print_table title rows =
  Printf.printf "\n%s\n  %-30s %14s %-6s %14s %9s\n" title "layer" "value" "unit" "self"
    "x below";
  let scale = function "ns" -> 1. | "us" -> 1e3 | "ms" -> 1e6 | "s" -> 1e9 | _ -> nan in
  let fmt x = if Float.is_finite x then Printf.sprintf "%.3f" x else "-" in
  ignore
    (List.fold_left
       (fun below r ->
         let ratio =
           match below with
           | Some b -> r.r_value *. scale r.r_unit /. (b.r_value *. scale b.r_unit)
           | None -> nan
         in
         Printf.printf "  %-30s %14s %-6s %14s %9s\n" r.r_name (fmt r.r_value) r.r_unit
           (fmt r.r_self)
           (if Float.is_finite ratio then Printf.sprintf "%.2f" ratio else "-");
         Some r)
       None rows)

let metrics_of_rungs rows = List.map (fun r -> metric r.r_name r.r_unit r.r_value) rows
