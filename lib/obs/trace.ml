(* Span tracing over the Monotonic clock.

   Tracing is opt-in (disabled by default): when disabled, [with_span]
   costs one atomic load and runs the body with a shared dummy span —
   no clock reads, no allocation.  When enabled, spans carry an id, an
   optional parent (explicit, or implicit from the per-domain stack
   that [with_span] maintains), start/stop timestamps, and string
   annotations; finished spans land in a bounded ring buffer, so a
   long-running process can trace forever in constant memory (oldest
   spans are overwritten). *)

type span = {
  id : int;
  parent : int; (* -1 = root *)
  name : string;
  start_ns : int64;
  mutable stop_ns : int64; (* -1 until finished *)
  mutable annotations : (string * string) list; (* reverse order *)
  real : bool;
}

type finished = {
  f_id : int;
  f_parent : int option;
  f_name : string;
  f_start_ns : int64;
  f_stop_ns : int64;
  f_annotations : (string * string) list;
}

let dummy =
  { id = -1; parent = -1; name = ""; start_ns = 0L; stop_ns = 0L;
    annotations = []; real = false }

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let next_id = Atomic.make 0

(* --- bounded ring of finished spans ------------------------------------- *)

let ring_mutex = Mutex.create ()
let ring = ref (Array.make 4096 None)
let next_slot = ref 0
let stored = ref 0

(* The ring drops (overwrites) the oldest span once full.  That loss
   used to be silent; now it is counted — exactly, in [dropped_total]
   (reset by [clear]/[set_capacity]), and cumulatively in the
   registry-visible "trace.dropped" counter so snapshots and the serve
   `stats` endpoint can surface it. *)
let dropped_total = Atomic.make 0
let m_dropped = Metrics.counter "trace.dropped"
let dropped () = Atomic.get dropped_total

let set_capacity n =
  if n < 1 then invalid_arg "Obs.Trace.set_capacity: capacity must be >= 1";
  Mutex.lock ring_mutex;
  ring := Array.make n None;
  next_slot := 0;
  stored := 0;
  Atomic.set dropped_total 0;
  Mutex.unlock ring_mutex

let clear () =
  Mutex.lock ring_mutex;
  Array.fill !ring 0 (Array.length !ring) None;
  next_slot := 0;
  stored := 0;
  Atomic.set dropped_total 0;
  Mutex.unlock ring_mutex

let push_finished f =
  Mutex.lock ring_mutex;
  let cap = Array.length !ring in
  if !stored = cap then begin
    Atomic.incr dropped_total;
    Metrics.incr m_dropped
  end;
  !ring.(!next_slot) <- Some f;
  next_slot := (!next_slot + 1) mod cap;
  if !stored < cap then incr stored;
  Mutex.unlock ring_mutex

let spans () =
  Mutex.lock ring_mutex;
  let cap = Array.length !ring in
  let start = (!next_slot - !stored + (2 * cap)) mod cap in
  let out = ref [] in
  for i = !stored - 1 downto 0 do
    match !ring.((start + i) mod cap) with
    | Some f -> out := f :: !out
    | None -> ()
  done;
  Mutex.unlock ring_mutex;
  !out

let span_count () = Mutex.protect ring_mutex (fun () -> !stored)

(* --- span lifecycle ----------------------------------------------------- *)

(* Per-domain stack of open spans, giving [with_span] implicit
   parent/child nesting without any cross-domain coordination. *)
let stack_key : span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let start ?parent name =
  if not (enabled ()) then dummy
  else begin
    let pid =
      match parent with
      | Some p -> if p.real then p.id else -1
      | None -> (
        match !(Domain.DLS.get stack_key) with
        | s :: _ -> s.id
        | [] -> -1)
    in
    {
      id = Atomic.fetch_and_add next_id 1;
      parent = pid;
      name;
      start_ns = Monotonic.now_ns ();
      stop_ns = -1L;
      annotations = [];
      real = true;
    }
  end

let annotate s key value =
  if s.real then s.annotations <- (key, value) :: s.annotations

let finish s =
  if s.real && Int64.compare s.stop_ns 0L < 0 then begin
    s.stop_ns <- Monotonic.now_ns ();
    push_finished
      {
        f_id = s.id;
        f_parent = (if s.parent >= 0 then Some s.parent else None);
        f_name = s.name;
        f_start_ns = s.start_ns;
        f_stop_ns = s.stop_ns;
        f_annotations = List.rev s.annotations;
      }
  end

(* Push an already-timed span straight into the ring, bypassing the
   global [enabled] gate.  Used by samplers (e.g. the serve telemetry
   layer) that keep their own admission policy: the caller decided this
   request deserves a span, whether or not ambient tracing is on. *)
let emit ?parent ~name ~start_ns ~stop_ns ~annotations () =
  let id = Atomic.fetch_and_add next_id 1 in
  push_finished
    {
      f_id = id;
      f_parent = parent;
      f_name = name;
      f_start_ns = start_ns;
      f_stop_ns = stop_ns;
      f_annotations = annotations;
    };
  id

let with_span ?parent name f =
  if not (enabled ()) then f dummy
  else begin
    let s = start ?parent name in
    let stack = Domain.DLS.get stack_key in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (match !stack with _ :: rest -> stack := rest | [] -> ());
        finish s)
      (fun () -> f s)
  end

(* --- export ------------------------------------------------------------- *)

let to_jsonl (f : finished) =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":%s,\"type\":\"span\",\"id\":%d,\"parent\":%s"
       (Json.str Metrics.schema) f.f_id
       (match f.f_parent with Some p -> string_of_int p | None -> "null"));
  Buffer.add_string b
    (Printf.sprintf ",\"name\":%s,\"start_ns\":%Ld,\"dur_ns\":%Ld"
       (Json.str f.f_name) f.f_start_ns
       (Int64.sub f.f_stop_ns f.f_start_ns));
  Buffer.add_string b ",\"annotations\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Json.str k);
      Buffer.add_char b ':';
      Buffer.add_string b (Json.str v))
    f.f_annotations;
  Buffer.add_string b "}}";
  Buffer.contents b

let write_jsonl oc =
  List.iter
    (fun f ->
      output_string oc (to_jsonl f);
      output_char oc '\n')
    (spans ())
