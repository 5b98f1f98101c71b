(* Request telemetry for the serve stack: per-request stage clocks, a
   deterministic trace sampler, latency quantiles, and a bounded flight
   recorder.

   A [clock] is allocated per request by the transport (reactor shard
   or pipe loop) and threaded through the engine; each stage stamps a
   monotonic timestamp into a mutable field — read complete, decode,
   cache lookup, compute start/end, encode, flush.  [finish] records
   each stage duration once, in nanoseconds, into

   - a per-stage [Obs.Metrics] histogram ([serve.stage.*_s]) — the
     `stats` endpoint's p50/p90/p99/p999 are read from its trailing
     window, within [Obs.Metrics.relative_error] of the exact values;
   - a per-kind x per-codec latency histogram
     ([serve.latency.<kind>.<codec>_s]);
   - the flight recorder — a lock-free ring of the last N completed
     request records, dumped as htlc-obs/v1 JSONL on a handler crash,
     chaos-gate failure, or an explicit trigger.

   Nothing else counts a finished request: the [total] stage
   histogram's count is the finished-request total, and its window
   count over the seconds that window spans is the request rate
   `stats` reports.

   The deterministic sampler promotes ~1/[sample_every] requests to
   full [Obs.Trace] spans.  It is a pure function of the request id
   (FNV-1a), so the sampled set is identical for any shard count or
   replay of the same corpus — a sampled request is sampled
   everywhere, which makes cross-run span comparisons meaningful.

   Byte-identity contract: nothing here touches response bytes.  When
   disabled, [make] hands out a shared dummy clock and every stamp is a
   single bool load; responses are byte-identical with telemetry on or
   off either way. *)

module M = Obs.Metrics

let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* --- deterministic sampler ------------------------------------------------ *)

let default_sample_every = 256
let sample_every_cell = Atomic.make default_sample_every
let sample_every () = Atomic.get sample_every_cell

let set_sample_every n =
  if n < 1 then invalid_arg "Telemetry.set_sample_every: must be >= 1";
  Atomic.set sample_every_cell n

(* FNV-1a (32-bit) — fixed here rather than [Hashtbl.hash] so the
   sampled set is stable across compiler versions, documented, and
   reproducible by clients in any language.  A plain accumulator loop:
   the obvious [ref] + [String.iter] closure allocates, and this runs
   once per finished request. *)
let rec fnv1a h s i n =
  if i >= n then h
  else
    fnv1a
      (((h lxor Char.code (String.unsafe_get s i)) * 0x01000193)
      land 0xffffffff)
      s (i + 1) n

let sample_hash s = fnv1a 0x811c9dc5 s 0 (String.length s)

let should_sample_id id =
  let n = Atomic.get sample_every_cell in
  n <= 1 || sample_hash (match id with Some i -> i | None -> "") mod n = 0

(* --- stage clock ---------------------------------------------------------- *)

(* Stamps are tagged [int] nanoseconds (not [int64]): an [int64]
   mutable field boxes on every store, and at serve throughput those
   boxes — seven per request, across five-plus domains whose minor
   collections are stop-the-world — were the single largest telemetry
   cost.  [Obs.Monotonic.now_int_ns] reads the clock without
   allocating either. *)
type clock = {
  real : bool;
  mutable codec : string; (* "json" | "binary" | "pipe" *)
  mutable kind : string; (* request kind, or "error" for rejects *)
  mutable id : string option;
  mutable t_read : int; (* transport finished reading the bytes *)
  mutable t_decode : int; (* typed request (or reject) in hand *)
  mutable t_cache : int; (* cache lookup returned *)
  mutable t_compute0 : int; (* evaluation started *)
  mutable t_compute1 : int; (* evaluation finished *)
  mutable t_encode : int; (* response assembled *)
  mutable t_flush : int; (* response bytes handed to the kernel *)
  mutable cache_hit : bool;
  mutable status : string; (* "ok" | "error" *)
  mutable finalized : bool;
}

let none =
  {
    real = false;
    codec = "";
    kind = "";
    id = None;
    t_read = 0;
    t_decode = 0;
    t_cache = 0;
    t_compute0 = 0;
    t_compute1 = 0;
    t_encode = 0;
    t_flush = 0;
    cache_hit = false;
    status = "ok";
    finalized = true;
  }

let make ~codec ~read_ns =
  if not (enabled ()) then none
  else
    {
      real = true;
      codec;
      kind = "error";
      id = None;
      t_read = read_ns;
      t_decode = 0;
      t_cache = 0;
      t_compute0 = 0;
      t_compute1 = 0;
      t_encode = 0;
      t_flush = 0;
      cache_hit = false;
      status = "ok";
      finalized = false;
    }

let is_real c = c.real

(* Clock pooling: a transport that answers many requests (a reactor
   connection) may hand a finalized clock back through [reinit] instead
   of allocating a fresh one per request.  [finish] copies the fields
   into the flight recorder's own slot records ([Recorder.push_copy]),
   so nothing retains the clock once it is finalized — at steady state
   the serve path allocates no clock and promotes none. *)
let reinit c ~codec ~read_ns =
  if not (enabled ()) then none
  else if c.real && c.finalized then begin
    c.codec <- codec;
    c.kind <- "error";
    c.id <- None;
    c.t_read <- read_ns;
    c.t_decode <- 0;
    c.t_cache <- 0;
    c.t_compute0 <- 0;
    c.t_compute1 <- 0;
    c.t_encode <- 0;
    c.t_flush <- 0;
    c.cache_hit <- false;
    c.status <- "ok";
    c.finalized <- false;
    c
  end
  else make ~codec ~read_ns

let blank_clock () =
  {
    real = true;
    codec = "";
    kind = "";
    id = None;
    t_read = 0;
    t_decode = 0;
    t_cache = 0;
    t_compute0 = 0;
    t_compute1 = 0;
    t_encode = 0;
    t_flush = 0;
    cache_hit = false;
    status = "ok";
    finalized = true;
  }

let copy_clock src dst =
  dst.codec <- src.codec;
  dst.kind <- src.kind;
  dst.id <- src.id;
  dst.t_read <- src.t_read;
  dst.t_decode <- src.t_decode;
  dst.t_cache <- src.t_cache;
  dst.t_compute0 <- src.t_compute0;
  dst.t_compute1 <- src.t_compute1;
  dst.t_encode <- src.t_encode;
  dst.t_flush <- src.t_flush;
  dst.cache_hit <- src.cache_hit;
  dst.status <- src.status;
  dst.finalized <- true

let now_ns = Obs.Monotonic.now_int_ns
let stamp_decode c = if c.real then c.t_decode <- now_ns ()

let stamp_cache c ~hit =
  if c.real then begin
    c.t_cache <- now_ns ();
    c.cache_hit <- hit
  end

let stamp_compute_start c = if c.real then c.t_compute0 <- now_ns ()
let stamp_compute_stop c = if c.real then c.t_compute1 <- now_ns ()
let stamp_encode c = if c.real then c.t_encode <- now_ns ()
let set_kind c kind = if c.real then c.kind <- kind
let set_id c id = if c.real then c.id <- id
let set_status c s = if c.real then c.status <- s

(* --- aggregation sinks ---------------------------------------------------- *)

let kind_names =
  [|
    "cutoffs"; "success_rate"; "sweep"; "quote"; "health"; "stats"; "route";
    "error";
  |]

let kind_index = function
  | "cutoffs" -> 0
  | "success_rate" -> 1
  | "sweep" -> 2
  | "quote" -> 3
  | "health" -> 4
  | "stats" -> 5
  | "route" -> 6
  | _ -> 7

let codec_names = [| "json"; "binary"; "pipe" |]

let codec_index = function
  | "json" -> 0
  | "binary" -> 1
  | _ -> 2

(* Resolved once at module load: registration walks the registry under
   a mutex, which is too much for per-request code. *)
let latency_hists =
  Array.init (Array.length kind_names) (fun k ->
      Array.init (Array.length codec_names) (fun c ->
          M.histogram
            (Printf.sprintf "serve.latency.%s.%s_s" kind_names.(k)
               codec_names.(c))))

let stage_names =
  [| "decode"; "cache"; "compute"; "encode"; "flush"; "total" |]

let stage_hists =
  Array.map
    (fun s -> M.histogram (Printf.sprintf "serve.stage.%s_s" s))
    stage_names

let m_sampled = M.counter "serve.telemetry.sampled"

(* --- flight recorder ------------------------------------------------------ *)

let default_recorder_capacity = 512
let recorder = Atomic.make (Obs.Recorder.create ~capacity:default_recorder_capacity ())

let set_recorder_capacity n =
  Atomic.set recorder (Obs.Recorder.create ~capacity:n ())

let recorder_capacity () = Obs.Recorder.capacity (Atomic.get recorder)
let recorder_recorded () = Obs.Recorder.recorded (Atomic.get recorder)
let recorder_pushed () = Obs.Recorder.pushed (Atomic.get recorder)
let recorder_dropped () = Obs.Recorder.dropped (Atomic.get recorder)

(* --- finalisation --------------------------------------------------------- *)

(* A stage's duration exists only when both endpoints were stamped
   (e.g. no compute on a cache hit). *)
let stage_dur a b = if a > 0 && b >= a then Some (b - a) else None

let encode_from c =
  if c.t_compute1 > 0 then c.t_compute1
  else if c.t_cache > 0 then c.t_cache
  else c.t_decode

let stage_durs c =
  [|
    stage_dur c.t_read c.t_decode;
    (if c.cache_hit || c.t_cache > 0 then stage_dur c.t_decode c.t_cache
     else None);
    stage_dur c.t_compute0 c.t_compute1;
    stage_dur (encode_from c) c.t_encode;
    stage_dur c.t_encode c.t_flush;
    stage_dur c.t_read c.t_flush;
  |]

let span_of c =
  let ann = ref [] in
  let durs = stage_durs c in
  for i = Array.length durs - 1 downto 0 do
    match durs.(i) with
    | Some d -> ann := (stage_names.(i) ^ "_ns", string_of_int d) :: !ann
    | None -> ()
  done;
  let ann =
    ("kind", c.kind) :: ("codec", c.codec) :: ("status", c.status)
    :: ("cache", if c.cache_hit then "hit" else "miss")
    :: (match c.id with Some id -> [ ("id", id) ] | None -> [])
    @ !ann
  in
  ignore
    (Obs.Trace.emit ~name:"serve.request"
       ~start_ns:(Int64.of_int c.t_read)
       ~stop_ns:(Int64.of_int (if c.t_flush > 0 then c.t_flush else c.t_read))
       ~annotations:ann ())

(* Records one stage without the intermediate option array [stage_durs]
   builds — [finish] runs once per served request, so it avoids the
   per-request [Some] boxes the dump/span paths can afford. *)
let observe_pair i a b = if a > 0 && b >= a then M.observe_ns stage_hists.(i) (b - a)

let finish c ~flush_ns =
  if c.real && not c.finalized then begin
    c.finalized <- true;
    c.t_flush <- flush_ns;
    observe_pair 0 c.t_read c.t_decode;
    if c.cache_hit || c.t_cache > 0 then observe_pair 1 c.t_decode c.t_cache;
    observe_pair 2 c.t_compute0 c.t_compute1;
    observe_pair 3 (encode_from c) c.t_encode;
    observe_pair 4 c.t_encode c.t_flush;
    if c.t_read > 0 && c.t_flush >= c.t_read then begin
      let total = c.t_flush - c.t_read in
      M.observe_ns stage_hists.(5) total;
      M.observe_ns latency_hists.(kind_index c.kind).(codec_index c.codec) total
    end;
    Obs.Recorder.push_copy (Atomic.get recorder) ~blank:blank_clock
      ~copy:copy_clock c;
    if should_sample_id c.id then begin
      M.incr m_sampled;
      span_of c
    end
  end

let finish_now c = finish c ~flush_ns:(now_ns ())

(* --- stats document ------------------------------------------------------- *)

let j_num = Obs.Json.num
let j_str = Obs.Json.str
let us x = j_num (x *. 1e6)

(* Quantiles come from each histogram's trailing window, within
   [Obs.Metrics.relative_error] of the exact nearest-rank values. *)
let export_qs = [| 0.50; 0.90; 0.99; 0.999 |]

let view h = M.hist_view h ~now_ns:(now_ns ()) export_qs

(* One [latency] or [stages] row, in microseconds: written only when the
   histogram's window holds samples, preceded by a comma unless it is
   the section's first.  Only the stage rows carry a mean, over every
   sample ever recorded. *)
let add_row b ~first ~mean name (v : M.hist_view) =
  if v.v_window > 0 then begin
    if not !first then Buffer.add_char b ',';
    first := false;
    let q = v.v_quantiles in
    Printf.bprintf b "%s:{\"count\":%d" (j_str name) v.v_count;
    if mean then
      Printf.bprintf b ",\"mean_us\":%s"
        (us (v.v_sum /. float_of_int v.v_count));
    Printf.bprintf b
      ",\"window\":%d,\"p50_us\":%s,\"p90_us\":%s,\"p99_us\":%s,\"p999_us\":%s}"
      v.v_window (us q.(0)) (us q.(1)) (us q.(2)) (us q.(3))
  end

let stats_json () =
  (* One read per stage: the [rate] section is the [total] stage's
     count and its window count over the seconds that window spans, so
     it agrees with the [stages] rows by construction. *)
  let stages = Array.map view stage_hists in
  let total = stages.(Array.length stages - 1) in
  let rps =
    if total.v_window_s > 0. then
      float_of_int total.v_window /. total.v_window_s
    else 0.
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"telemetry\":{\"enabled\":%b,\"sample_every\":%d}"
    (enabled ()) (sample_every ());
  Printf.bprintf b ",\"rate\":{\"window_s\":%s,\"rps\":%s,\"total\":%d}"
    (j_num total.v_window_s) (j_num rps) total.v_count;
  Buffer.add_string b ",\"latency\":{";
  let first = ref true in
  Array.iteri
    (fun k row ->
      Array.iteri
        (fun c h ->
          add_row b ~first ~mean:false
            (kind_names.(k) ^ "." ^ codec_names.(c))
            (view h))
        row)
    latency_hists;
  Buffer.add_string b "},\"stages\":{";
  let first = ref true in
  Array.iteri (fun i v -> add_row b ~first ~mean:true stage_names.(i) v) stages;
  Printf.bprintf b
    "},\"recorder\":{\"capacity\":%d,\"recorded\":%d,\"pushed\":%d,\"dropped\":%d}"
    (recorder_capacity ()) (recorder_recorded ()) (recorder_pushed ())
    (recorder_dropped ());
  Printf.bprintf b ",\"trace\":{\"enabled\":%b,\"spans\":%d,\"dropped\":%d}}"
    (Obs.Trace.enabled ()) (Obs.Trace.span_count ()) (Obs.Trace.dropped ());
  Buffer.contents b

(* --- flight-recorder dump ------------------------------------------------- *)

let record_jsonl seq c =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":%s,\"type\":\"request\",\"seq\":%d,\"id\":%s,\"kind\":%s,\"codec\":%s,\"status\":%s,\"cache\":%s,\"sampled\":%b,\"start_ns\":%d,\"total_ns\":%d"
       (j_str M.schema) seq
       (match c.id with Some id -> j_str id | None -> "null")
       (j_str c.kind) (j_str c.codec) (j_str c.status)
       (j_str (if c.cache_hit then "hit" else "miss"))
       (should_sample_id c.id) c.t_read
       (if c.t_flush >= c.t_read then c.t_flush - c.t_read else 0));
  Buffer.add_string b ",\"stages\":{";
  let durs = stage_durs c in
  let first = ref true in
  Array.iteri
    (fun i d ->
      match d with
      | Some d ->
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b (Printf.sprintf "\"%s_ns\":%d" stage_names.(i) d)
      | None -> ())
    durs;
  Buffer.add_string b "}}";
  Buffer.contents b

let write_recorder ?(reason = "explicit") oc =
  let r = Atomic.get recorder in
  let entries = Obs.Recorder.dump r in
  output_string oc
    (Printf.sprintf
       "{\"schema\":%s,\"type\":\"recorder\",\"reason\":%s,\"capacity\":%d,\"recorded\":%d,\"pushed\":%d,\"dropped\":%d}\n"
       (j_str M.schema) (j_str reason) (Obs.Recorder.capacity r)
       (List.length entries) (Obs.Recorder.pushed r) (Obs.Recorder.dropped r));
  List.iter
    (fun (seq, c) ->
      output_string oc (record_jsonl seq c);
      output_char oc '\n')
    entries

(* Crash dumps: the engine absorbs a handler crash and wants the last
   N requests on disk.  The path is configured once (e.g. by `swap_cli
   serve --recorder-dump`); without one the trigger is a no-op.  I/O
   failures are swallowed — a dump must never turn an absorbed handler
   crash into a server death. *)
let dump_path = Atomic.make (None : string option)
let set_dump_path p = Atomic.set dump_path p

let dump_to_path ~reason =
  match Atomic.get dump_path with
  | None -> ()
  | Some path -> (
    match open_out path with
    | exception Sys_error _ -> ()
    | oc ->
      (try write_recorder ~reason oc with Sys_error _ -> ());
      (try close_out oc with Sys_error _ -> ()))

(* --- reset (tests, the socket smoke) ------------------------------------- *)

let reset () =
  let now_ns = now_ns () in
  Array.iter (fun row -> Array.iter (M.rebase ~now_ns) row) latency_hists;
  Array.iter (M.rebase ~now_ns) stage_hists;
  Obs.Recorder.reset (Atomic.get recorder)
