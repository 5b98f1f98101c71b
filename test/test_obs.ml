(* Observability layer: metrics registry correctness (including under
   pool fan-out), trace export shapes, cutoff-cache eviction, pool
   stats, HTLC_JOBS validation, and the determinism guard showing that
   instrumentation never perturbs Monte-Carlo results. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- metrics registry --------------------------------------------------- *)

let test_counter_basics () =
  let c = Obs.Metrics.counter "test.counter_basics" in
  Obs.Metrics.reset_counter c;
  check_int "starts at zero" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  check_int "incr + add" 42 (Obs.Metrics.counter_value c);
  let c' = Obs.Metrics.counter "test.counter_basics" in
  Obs.Metrics.incr c';
  check_int "registration is idempotent (same cells)" 43
    (Obs.Metrics.counter_value c);
  (match Obs.Metrics.gauge "test.counter_basics" with
  | _ -> Alcotest.fail "re-registering a counter as a gauge must fail"
  | exception Invalid_argument _ -> ());
  Obs.Metrics.reset_counter c

let test_enabled_gating () =
  let c = Obs.Metrics.counter "test.enabled_gating" in
  Obs.Metrics.reset_counter c;
  Obs.Metrics.set_enabled false;
  Obs.Metrics.incr c;
  Obs.Metrics.add c 10;
  Obs.Metrics.set_enabled true;
  check_int "updates are no-ops while disabled" 0
    (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  check_int "updates resume when re-enabled" 1 (Obs.Metrics.counter_value c);
  Obs.Metrics.reset_counter c

let test_gauge_max () =
  let g = Obs.Metrics.gauge "test.gauge_max" in
  Obs.Metrics.set_gauge g 0.;
  Obs.Metrics.max_gauge g 3.;
  Obs.Metrics.max_gauge g 1.;
  check (Alcotest.float 0.) "max keeps the high-water mark" 3.
    (Obs.Metrics.gauge_value g)

let test_histogram_buckets () =
  let h = Obs.Metrics.histogram "test.histogram_buckets" in
  Obs.Metrics.observe_ns h 1_000_000_000;
  Obs.Metrics.observe_ns h 750_000_000;
  Obs.Metrics.observe_ns h 750_000_000;
  let s = Obs.Metrics.hist_value h in
  check_int "count" 3 s.Obs.Metrics.count;
  check (Alcotest.float 1e-12) "sum in seconds" 2.5 s.Obs.Metrics.sum;
  (* A value lands in the bucket whose upper bound is above it by at
     most 1/32 of the value: the log-linear sub-bucket width. *)
  let holds v n =
    List.exists
      (fun (le, k) -> k = n && le > v && le <= v *. (1. +. (1. /. 32.)))
      s.Obs.Metrics.buckets
  in
  check_bool "1 s and 0.75 s land in their 1/32-wide sub-buckets" true
    (List.length s.Obs.Metrics.buckets = 2 && holds 1.0 1 && holds 0.75 2)

let test_parallel_counters () =
  let c = Obs.Metrics.counter "test.parallel_counters" in
  let h = Obs.Metrics.histogram "test.parallel_hist" in
  Obs.Metrics.reset_counter c;
  let before = (Obs.Metrics.hist_value h).Obs.Metrics.count in
  Numerics.Pool.run_chunks ~jobs:4 ~chunks:1000 (fun chunk ->
      Obs.Metrics.incr c;
      Obs.Metrics.observe_ns h ((chunk + 1) * 1000));
  check_int "no lost counter updates under fan-out" 1000
    (Obs.Metrics.counter_value c);
  check_int "no lost histogram updates under fan-out" 1000
    ((Obs.Metrics.hist_value h).Obs.Metrics.count - before);
  Obs.Metrics.reset_counter c

let test_snapshot_and_json () =
  let c = Obs.Metrics.counter "test.snapshot_counter" in
  Obs.Metrics.reset_counter c;
  Obs.Metrics.incr c;
  let s = Obs.Metrics.snapshot () in
  check_bool "snapshot carries the counter" true
    (List.mem_assoc "test.snapshot_counter" s.Obs.Metrics.counters);
  let json = Obs.Metrics.to_json s in
  check_bool "schema tag present" true
    (String.length json > 40
    && String.sub json 0 36 = "{\"schema\":\"htlc-obs/v1\",\"type\":\"metr");
  let prom = Obs.Metrics.to_prometheus s in
  check_bool "prometheus export mentions the counter" true
    (let needle = "test_snapshot_counter 1" in
     let n = String.length needle in
     let found = ref false in
     for i = 0 to String.length prom - n do
       if String.sub prom i n = needle then found := true
     done;
     !found);
  Obs.Metrics.reset_counter c

(* --- tracing ------------------------------------------------------------ *)

let test_trace_nesting_and_shape () =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Obs.Trace.with_span "outer" (fun outer ->
      Obs.Trace.annotate outer "k" "v";
      Obs.Trace.with_span "inner" (fun _ -> ()));
  Obs.Trace.set_enabled false;
  let spans = Obs.Trace.spans () in
  check_int "two spans recorded" 2 (List.length spans);
  (* Inner finishes first (ring is finish-ordered). *)
  let inner = List.nth spans 0 and outer = List.nth spans 1 in
  check Alcotest.string "inner name" "inner" inner.Obs.Trace.f_name;
  check Alcotest.string "outer name" "outer" outer.Obs.Trace.f_name;
  check
    (Alcotest.option Alcotest.int)
    "implicit parent"
    (Some outer.Obs.Trace.f_id)
    inner.Obs.Trace.f_parent;
  check_bool "durations are non-negative" true
    (Int64.compare inner.Obs.Trace.f_stop_ns inner.Obs.Trace.f_start_ns >= 0);
  let line = Obs.Trace.to_jsonl outer in
  check_bool "span JSONL golden shape" true
    (String.sub line 0 30 = "{\"schema\":\"htlc-obs/v1\",\"type\""
    && String.length line > 0
    && line.[String.length line - 1] = '}');
  let contains s needle =
    let n = String.length needle in
    let found = ref false in
    for i = 0 to String.length s - n do
      if String.sub s i n = needle then found := true
    done;
    !found
  in
  check_bool "span carries name + annotations" true
    (contains line "\"name\":\"outer\""
    && contains line "\"annotations\":{\"k\":\"v\"}"
    && contains line "\"parent\":null");
  Obs.Trace.clear ()

let test_trace_disabled_is_free () =
  Obs.Trace.clear ();
  check_bool "disabled by default in tests" false (Obs.Trace.enabled ());
  Obs.Trace.with_span "ghost" (fun s -> Obs.Trace.annotate s "a" "b");
  check_int "no spans recorded while disabled" 0
    (List.length (Obs.Trace.spans ()))

let test_trace_ring_bound () =
  Obs.Trace.clear ();
  Obs.Trace.set_capacity 8;
  Obs.Trace.set_enabled true;
  for i = 0 to 19 do
    Obs.Trace.with_span (Printf.sprintf "s%d" i) (fun _ -> ())
  done;
  Obs.Trace.set_enabled false;
  let spans = Obs.Trace.spans () in
  check_int "ring keeps only the newest spans" 8 (List.length spans);
  check Alcotest.string "oldest retained span" "s12"
    (List.hd spans).Obs.Trace.f_name;
  check_int "overwrites are counted exactly" 12 (Obs.Trace.dropped ());
  check_bool "registry counter mirrors the drops" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter "trace.dropped") >= 12);
  Obs.Trace.set_capacity 4096;
  check_int "set_capacity resets the exact count" 0 (Obs.Trace.dropped ())

let test_trace_emit_bypasses_gate () =
  Obs.Trace.clear ();
  check_bool "ambient tracing off" false (Obs.Trace.enabled ());
  let id =
    Obs.Trace.emit ~name:"sampled" ~start_ns:10L ~stop_ns:35L
      ~annotations:[ ("k", "v") ] ()
  in
  (match Obs.Trace.spans () with
  | [ f ] ->
    check_int "allocated id is echoed" id f.Obs.Trace.f_id;
    check Alcotest.string "name" "sampled" f.Obs.Trace.f_name;
    check_bool "timestamps are caller-supplied" true
      (f.Obs.Trace.f_start_ns = 10L && f.Obs.Trace.f_stop_ns = 35L);
    check
      (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
      "annotations kept in order"
      [ ("k", "v") ]
      f.Obs.Trace.f_annotations
  | spans ->
    Alcotest.failf "expected 1 emitted span, got %d" (List.length spans));
  Obs.Trace.clear ()

(* --- log-linear histogram -------------------------------------------------- *)

(* Log-uniform durations from 1 ns to 10 s. *)
let log_uniform_ns rng n =
  Array.init n (fun _ ->
      let x = Float.log 1e10 *. Numerics.Rng.uniform rng in
      max 1 (int_of_float (Float.exp x)))

let nearest_rank sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  sorted.(min n rank - 1)

let test_histogram_quantile_error () =
  let qs = [| 0.001; 0.25; 0.50; 0.90; 0.99; 0.999; 1.0 |] in
  List.iter
    (fun seed ->
      let h = Obs.Metrics.histogram (Printf.sprintf "test.hist_error_%d" seed) in
      let xs = log_uniform_ns (Numerics.Rng.create ~seed ()) 20_000 in
      Array.iter (Obs.Metrics.observe_ns h) xs;
      Array.sort compare xs;
      let v = Obs.Metrics.hist_view h ~now_ns:0 qs in
      check_int "the first read's window holds every sample" 20_000
        v.Obs.Metrics.v_window;
      Array.iteri
        (fun i q ->
          let exact = float_of_int (nearest_rank xs q) *. 1e-9 in
          let est = v.Obs.Metrics.v_quantiles.(i) in
          if Float.abs (est -. exact) > Obs.Metrics.relative_error *. exact
          then
            Alcotest.failf "seed %d q %g: estimate %g vs exact %g" seed q est
              exact)
        qs)
    [ 1; 2; 3 ]

(* The window's quantiles against the exact nearest-rank values of the
   samples it holds, on either side of a re-base: the first read holds
   [a]; 11 s on, the re-based window holds only [b]; a second later,
   with no re-base, [b] and [c]. *)
let test_histogram_window_quantiles () =
  let qs = [| 0.001; 0.1; 0.5; 0.9; 0.99; 0.999; 1.0 |] in
  let h = Obs.Metrics.histogram "test.hist_window_quantiles" in
  let rng = Numerics.Rng.create ~seed:9 () in
  let a = log_uniform_ns rng 5_000
  and b = log_uniform_ns rng 3_000
  and c = log_uniform_ns rng 2_000 in
  let s = 1_000_000_000 in
  let read_holds what ~now_ns samples =
    let held = Array.copy samples in
    Array.sort compare held;
    let v = Obs.Metrics.hist_view h ~now_ns qs in
    check_int (what ^ ": window size") (Array.length held) v.v_window;
    Array.iteri
      (fun i q ->
        let exact = float_of_int (nearest_rank held q) *. 1e-9 in
        let est = v.v_quantiles.(i) in
        if Float.abs (est -. exact) > Obs.Metrics.relative_error *. exact then
          Alcotest.failf "%s q %g: estimate %g vs nearest rank %g" what q est
            exact)
      qs
  in
  Array.iter (Obs.Metrics.observe_ns h) a;
  read_holds "first read" ~now_ns:(100 * s) a;
  Array.iter (Obs.Metrics.observe_ns h) b;
  read_holds "after the re-base" ~now_ns:(111 * s) b;
  Array.iter (Obs.Metrics.observe_ns h) c;
  read_holds "within the window" ~now_ns:(112 * s) (Array.append b c)

let test_histogram_domains_exact () =
  let h = Obs.Metrics.histogram "test.hist_domains" in
  let per = 25_000 in
  let run d () =
    for i = 1 to per do
      Obs.Metrics.observe_ns h ((i * 37) + d)
    done
  in
  Array.iter Domain.join (Array.init 4 (fun d -> Domain.spawn (run d)));
  let s = Obs.Metrics.hist_value h in
  check_int "merged count is exact" (4 * per) s.Obs.Metrics.count;
  check_int "bucket counts sum to the count" s.Obs.Metrics.count
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Obs.Metrics.buckets);
  let sum_ns = (4 * 37 * per * (per + 1) / 2) + (per * (0 + 1 + 2 + 3)) in
  check (Alcotest.float 1e-9) "merged sum is exact"
    (float_of_int sum_ns /. 1e9) s.Obs.Metrics.sum;
  check_bool "one shard per recording domain" true
    (Obs.Metrics.hist_shards h <= 4)

let test_histogram_domain_exit () =
  let h = Obs.Metrics.histogram "test.hist_exit" in
  for d = 1 to 20 do
    Domain.join
      (Domain.spawn (fun () ->
           for _ = 1 to 100 do
             Obs.Metrics.observe_ns h d
           done))
  done;
  check_int "exited domains keep their counts" 2000
    (Obs.Metrics.hist_value h).Obs.Metrics.count;
  check_int "an exited domain's shard is reused, not leaked" 1
    (Obs.Metrics.hist_shards h)

let test_histogram_window () =
  let h = Obs.Metrics.histogram "test.hist_window" in
  let s = 1_000_000_000 in
  let t0 = 100 * s in
  let read at = Obs.Metrics.hist_view h ~now_ns:at [| 0.5 |] in
  let near want (v : Obs.Metrics.hist_view) =
    Float.abs (v.v_quantiles.(0) -. want)
    <= Obs.Metrics.relative_error *. want
  in
  let spans secs (v : Obs.Metrics.hist_view) = v.v_window_s = float_of_int secs in
  let record n ns =
    for _ = 1 to n do
      Obs.Metrics.observe_ns h ns
    done
  in
  record 5 1_000;
  check_int "first read covers everything" 5 (read t0).v_window;
  record 3 1_000_000;
  check_int "no re-base within 10 s" 8 (read (t0 + (5 * s))).v_window;
  let v = read (t0 + (11 * s)) in
  check_bool "after 10 s the window starts at the first read" true
    (v.v_window = 3 && v.v_count = 8 && near 1e-3 v && spans 11 v);
  record 2 s;
  let v = read (t0 + (12 * s)) in
  check_bool "the older base holds until the next re-base" true
    (v.v_window = 5 && spans 12 v);
  let v = read (t0 + (22 * s)) in
  check_bool "the second re-base drops what came before the first" true
    (v.v_window = 2 && v.v_count = 10 && near 1. v && spans 11 v);
  Obs.Metrics.rebase h ~now_ns:(t0 + (23 * s));
  let v = read (t0 + (24 * s)) in
  check_bool "rebase empties the window, not the count" true
    (v.v_window = 0 && v.v_count = 10 && Float.is_nan v.v_quantiles.(0)
    && spans 1 v);
  record 1 1_000;
  let v = read (t0 + (25 * s)) in
  check_bool "and it refills, spanning from the rebase" true
    (v.v_window = 1 && spans 2 v)

let test_histogram_record_allocates_nothing () =
  let h = Obs.Metrics.histogram "test.hist_alloc" in
  Obs.Metrics.observe_ns h 1;
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do
    Obs.Metrics.observe_ns h i
  done;
  check_bool "no words allocated by 100k records" true
    (Gc.minor_words () -. w0 < 100.)

(* --- flight recorder ------------------------------------------------------ *)

let blank () = ref 0
let copy v slot = slot := !v

let test_recorder_last_n () =
  let r = Obs.Recorder.create ~capacity:16 () in
  check_int "capacity honoured" 16 (Obs.Recorder.capacity r);
  let v = ref 0 in
  for i = 0 to 39 do
    v := i;
    Obs.Recorder.push_copy r ~blank ~copy v
  done;
  check_int "pushed is exact" 40 (Obs.Recorder.pushed r);
  check_int "holds exactly the bound" 16 (Obs.Recorder.recorded r);
  check_int "dropped = pushed - recorded" 24 (Obs.Recorder.dropped r);
  let entries = Obs.Recorder.dump r in
  check_int "dump size" 16 (List.length entries);
  (* The last [capacity] pushes survive, in completion order, even
     though every push came from one domain. *)
  List.iteri
    (fun i (seq, v) ->
      check_int (Printf.sprintf "entry %d seq" i) (24 + i) seq;
      check_int (Printf.sprintf "entry %d value" i) (24 + i) !v)
    entries;
  Obs.Recorder.reset r;
  check_int "reset empties" 0 (Obs.Recorder.recorded r);
  check_int "reset zeroes pushed" 0 (Obs.Recorder.pushed r);
  match Obs.Recorder.create ~capacity:4 () with
  | _ -> Alcotest.fail "capacity < 8 must be rejected"
  | exception Invalid_argument _ -> ()

(* --- prometheus histogram export ------------------------------------------ *)

let test_prometheus_clamped_bucket () =
  let h = Obs.Metrics.histogram "test.prom_clamp" in
  let xs = log_uniform_ns (Numerics.Rng.create ~seed:7 ()) 500 in
  Array.iter (Obs.Metrics.observe_ns h) xs;
  (* Far beyond the top bucket's lower edge (2^44 ns): clamped into it. *)
  Obs.Metrics.observe_ns h (1 lsl 50);
  Obs.Metrics.observe_ns h max_int;
  let prom = Obs.Metrics.to_prometheus (Obs.Metrics.snapshot ()) in
  let prefix = "test_prom_clamp_bucket{le=\"" in
  let rows =
    List.filter_map
      (fun line ->
        if String.starts_with ~prefix line then
          match String.split_on_char '"' line with
          | [ _; le; n ] ->
            Some (le, int_of_string (String.trim (String.sub n 2 (String.length n - 2))))
          | _ -> Alcotest.failf "malformed bucket line %S" line
        else None)
      (String.split_on_char '\n' prom)
  in
  let finite, inf = List.partition (fun (le, _) -> le <> "+Inf") rows in
  check (Alcotest.list Alcotest.int) "+Inf terminal equals _count" [ 502 ]
    (List.map snd inf);
  check_bool "_count line" true (contains prom "test_prom_clamp_count 502");
  let rec monotone = function
    | (la, na) :: ((lb, nb) :: _ as rest) ->
      float_of_string la < float_of_string lb && na <= nb && monotone rest
    | _ -> true
  in
  check_bool "finite buckets are le-increasing and cumulative" true
    (monotone finite);
  check_int "the clamped top bucket exports no finite le" 500
    (snd (List.nth finite (List.length finite - 1)))

(* --- json emitter ----------------------------------------------------------- *)

(* The Printf-based emitter [Obs.Json] replaced: its bytes are the
   contract (serve keys, transcripts, goldens). *)
let printf_num x =
  if Float.is_nan x || not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let buffer_str s =
  let b = Buffer.create 16 in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let test_json_num_bytes () =
  let rng = Numerics.Rng.create ~seed:2021 () in
  let p = Swap.Params.defaults in
  let fixed =
    [ 0.; -0.; 1.; -1.; 0.5; 1e15; -1e15; 1e15 -. 1.; 1e15 +. 2.; 999999999999999.;
      4503599627370496.; 9007199254740993.; 1e300; -1e-300; 5e-324; -5e-324;
      2.2250738585072014e-308; 2.2250738585072009e-308; Float.max_float;
      Float.min_float; Float.epsilon; 0.1; 0.3; 2.5; 1.5; nan; infinity;
      neg_infinity; p.alice.alpha; p.bob.alpha; p.alice.r; p.bob.r; p.tau_a;
      p.tau_b; p.eps_b; p.p0; p.mu; p.sigma ]
  in
  let random () =
    match Numerics.Rng.int_below rng 6 with
    | 0 -> Int64.float_of_bits (Numerics.Rng.bits64 rng)
    | 1 -> (* subnormal *)
      Int64.float_of_bits
        (Int64.logand (Numerics.Rng.bits64 rng) 0x800F_FFFF_FFFF_FFFFL)
    | 2 -> Float.ldexp (if Numerics.Rng.int_below rng 2 = 0 then 1. else -1.)
             (Numerics.Rng.int_below rng 2098 - 1074)
    | 3 -> (* integers on both sides of 1e15 *)
      Float.of_int (Numerics.Rng.int_below rng 2_000_000_000)
      *. (if Numerics.Rng.int_below rng 2 = 0 then 1. else 1e6)
      *. (if Numerics.Rng.int_below rng 2 = 0 then 1. else -1.)
    | 4 -> 1e15 +. Float.of_int (Numerics.Rng.int_below rng 4001 - 2000)
    | _ -> -10. +. (20. *. Numerics.Rng.uniform rng)
  in
  let checked = ref 0 in
  let agree x =
    incr checked;
    let got = Obs.Json.num x and want = printf_num x in
    if got <> want then Alcotest.failf "num %h: %S, Printf says %S" x got want
  in
  List.iter agree fixed;
  for _ = 1 to 100_000 do
    agree (random ())
  done;
  check_bool "~100k floats compared" true (!checked > 100_000)

let test_json_str_bytes () =
  let rng = Numerics.Rng.create ~seed:14 () in
  let alphabet = "ab\"\\\n\t\r\x00\x01\x1f /:{}\xc3\xa9\x7f" in
  let random () =
    String.init (Numerics.Rng.int_below rng 12) (fun _ ->
        alphabet.[Numerics.Rng.int_below rng (String.length alphabet)])
  in
  List.iter
    (fun s ->
      check Alcotest.string (Printf.sprintf "str %S" s) (buffer_str s)
        (Obs.Json.str s);
      check Alcotest.int (Printf.sprintf "str_length %S" s)
        (String.length (buffer_str s)) (Obs.Json.str_length s))
    ([ ""; "plain"; "htlc-serve/v1"; "q\"uote"; "back\\slash"; "\x00" ]
    @ List.init 10_000 (fun _ -> random ()))

(* --- json parser strictness ---------------------------------------------- *)

let test_json_duplicate_keys () =
  (* Strict decoding: without the check the last duplicate would win
     silently for some consumers and the first for List.assoc_opt. *)
  (match Obs.Json_parse.parse "{\"a\":1,\"b\":2,\"a\":3}" with
  | _ -> Alcotest.fail "duplicate top-level key must be rejected"
  | exception Obs.Json_parse.Bad msg ->
    check_bool "error names the repeated key" true (contains msg "\"a\""));
  (match Obs.Json_parse.parse "{\"o\":{\"x\":1,\"x\":2}}" with
  | _ -> Alcotest.fail "duplicate nested key must be rejected"
  | exception Obs.Json_parse.Bad _ -> ());
  match Obs.Json_parse.parse "{\"o\":{\"x\":1},\"p\":{\"x\":2}}" with
  | _ -> ()
  | exception Obs.Json_parse.Bad msg ->
    Alcotest.failf "the same key in sibling objects is legal: %s" msg

(* --- pool stats + HTLC_JOBS validation ---------------------------------- *)

let test_pool_stats () =
  let s0 = Numerics.Pool.stats () in
  Numerics.Pool.run_chunks ~jobs:2 ~chunks:16 (fun _ -> ());
  let s1 = Numerics.Pool.stats () in
  check_bool "tasks_submitted grew" true
    (s1.Numerics.Pool.tasks_submitted > s0.Numerics.Pool.tasks_submitted);
  check_int "16 more chunks completed" 16
    (s1.Numerics.Pool.chunks_completed - s0.Numerics.Pool.chunks_completed);
  check_bool "queue high-water mark is sane" true
    (s1.Numerics.Pool.queue_depth_hwm >= 1
    && s1.Numerics.Pool.caller_helped >= 0)

let test_env_jobs_validation () =
  let expect_failure v =
    Unix.putenv "HTLC_JOBS" v;
    match Numerics.Pool.recommended () with
    | _ -> Alcotest.failf "HTLC_JOBS=%S must be rejected" v
    | exception Failure msg ->
      check_bool
        (Printf.sprintf "error for %S names the variable" v)
        true
        (String.length msg >= 9 && String.sub msg 0 9 = "HTLC_JOBS")
  in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "HTLC_JOBS" "")
    (fun () ->
      expect_failure "abc";
      expect_failure "0";
      expect_failure "-2";
      expect_failure "1.5";
      Unix.putenv "HTLC_JOBS" "3";
      check_int "valid value is honoured" 3 (Numerics.Pool.recommended ());
      Unix.putenv "HTLC_JOBS" "  ";
      check_bool "whitespace counts as unset" true
        (Numerics.Pool.recommended () >= 1))

(* --- cutoff cache eviction ---------------------------------------------- *)

let test_cutoff_eviction () =
  Swap.Cutoff.clear_caches ();
  let p = Swap.Params.defaults in
  let value_at p_star = Swap.Cutoff.p_t3_low p ~p_star in
  (* 700 distinct keys through a 512-entry cache: bounded size, real
     (per-entry) evictions, and evicted keys recompute identically. *)
  let first = value_at 1.0 in
  for i = 0 to 699 do
    ignore (value_at (1.0 +. (float_of_int i /. 100.)))
  done;
  let t3_size, _ = Swap.Cutoff.cache_sizes () in
  check_bool "t3 cache stays within capacity" true (t3_size <= 512);
  check_bool "evictions happened per entry, not wholesale" true
    (List.assoc "cutoff.cache.evictions" (Obs.Metrics.snapshot ()).counters > 0
    && t3_size > 256);
  check (Alcotest.float 0.) "evicted key recomputes identically" first
    (value_at 1.0);
  let hits, misses = Swap.Cutoff.cache_stats () in
  check_bool "stats reflect the sweep" true (misses >= 700 && hits >= 0);
  Swap.Cutoff.clear_caches ()

(* --- determinism guard --------------------------------------------------- *)

let test_mc_determinism_under_instrumentation () =
  let p = Swap.Params.defaults in
  let p_star = 2.0 in
  let policy = Swap.Agent.rational p ~p_star in
  let run ~jobs () =
    Swap.Montecarlo.run ~trials:4096 ~seed:17 ~jobs p ~p_star ~policy
  in
  let baseline =
    Obs.Metrics.set_enabled false;
    Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled true)
      (run ~jobs:1)
  in
  let instrumented_seq = run ~jobs:1 () in
  let instrumented_par = run ~jobs:4 () in
  let traced =
    Obs.Trace.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.set_enabled false;
        Obs.Trace.clear ())
      (run ~jobs:4)
  in
  check_bool "metrics on == metrics off (jobs=1)" true
    (baseline = instrumented_seq);
  check_bool "jobs=1 == jobs=4 with metrics on" true
    (instrumented_seq = instrumented_par);
  check_bool "tracing does not perturb results" true
    (instrumented_par = traced)

let test_protocol_trace_stable () =
  let p = Swap.Params.defaults in
  let faults =
    Chainsim.Faults.create ~drop_prob:0.4 ~reorg_prob:0.2 ()
  in
  let run () =
    Swap.Protocol.run ~seed:0xfeed ~faults_a:faults ~faults_b:faults
      ~retry:Swap.Agent.default_retry p ~p_star:2.0
  in
  let a = run () and b = run () in
  check_bool "protocol trace is deterministic" true
    (a.Swap.Protocol.trace = b.Swap.Protocol.trace);
  check_bool "trace is non-empty" true (a.Swap.Protocol.trace <> [])

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "enabled gating" `Quick test_enabled_gating;
          Alcotest.test_case "gauge max" `Quick test_gauge_max;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "parallel fan-out" `Quick test_parallel_counters;
          Alcotest.test_case "snapshot + exporters" `Quick
            test_snapshot_and_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting + JSONL shape" `Quick
            test_trace_nesting_and_shape;
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_is_free;
          Alcotest.test_case "bounded ring" `Quick test_trace_ring_bound;
          Alcotest.test_case "emit bypasses the gate" `Quick
            test_trace_emit_bypasses_gate;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "quantile error bound" `Quick
            test_histogram_quantile_error;
          Alcotest.test_case "4 domains exact" `Quick
            test_histogram_domains_exact;
          Alcotest.test_case "exited domain keeps counts" `Quick
            test_histogram_domain_exit;
          Alcotest.test_case "trailing window re-base" `Quick
            test_histogram_window;
          Alcotest.test_case "record allocates nothing" `Quick
            test_histogram_record_allocates_nothing;
          Alcotest.test_case "window quantiles are nearest-rank" `Quick
            test_histogram_window_quantiles;
        ] );
      ( "json",
        [
          Alcotest.test_case "num bytes match Printf" `Quick
            test_json_num_bytes;
          Alcotest.test_case "str bytes match the escaper" `Quick
            test_json_str_bytes;
        ] );
      ( "recorder",
        [ Alcotest.test_case "last-N ring" `Quick test_recorder_last_n ] );
      ( "prometheus",
        [
          Alcotest.test_case "clamped bucket folds into +Inf" `Quick
            test_prometheus_clamped_bucket;
        ] );
      ( "json_parse",
        [
          Alcotest.test_case "duplicate keys rejected" `Quick
            test_json_duplicate_keys;
        ] );
      ( "pool",
        [
          Alcotest.test_case "stats" `Quick test_pool_stats;
          Alcotest.test_case "HTLC_JOBS validation" `Quick
            test_env_jobs_validation;
        ] );
      ( "cutoff",
        [ Alcotest.test_case "second-chance eviction" `Quick
            test_cutoff_eviction ] );
      ( "determinism",
        [
          Alcotest.test_case "mc invariant to instrumentation" `Quick
            test_mc_determinism_under_instrumentation;
          Alcotest.test_case "protocol trace stable" `Quick
            test_protocol_trace_stable;
        ] );
    ]
