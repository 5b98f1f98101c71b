(* Event-driven socket transport: a fixed set of shard domains, each
   multiplexing its connections with [Unix.select] over non-blocking
   fds — replacing the domain-per-connection blocking design, whose
   spawn/join and context-switch cost capped throughput far below the
   engine's compute ceiling.

   Shape: one accepter domain parks in [accept] and deals new
   connections round-robin to shards through a mutex-guarded inbox +
   self-pipe wake-up (the only cross-domain handoff; everything else a
   shard touches is shard-owned).  Each shard loop selects on its wake
   pipe and its connections, reads whatever is available into a
   per-connection [Iobuf], answers {e every complete request already
   buffered} before returning to [select] (request pipelining), and
   accumulates responses in a write [Iobuf] flushed with single
   non-blocking writes (response batching: a 64-request burst costs a
   couple of syscalls each way, not 128).

   Compute runs inline on the shard domain: the shard decodes each
   request (a JSON line, or a b1 frame) and hands it to the engine's
   one request path, [Engine.answer] ([Engine.reject] for bytes that did
   not decode), which returns the response body — from the cache at the
   observed ~90% hit rate, where a handoff to another domain would cost
   more in wake-ups than the lookup itself.  [Response.splice] then
   writes the schema prefix, the id and the body straight into the
   connection's write buffer, as a line or a length-prefixed frame, so
   no response string is built.  A handler crash comes back as an
   [internal_error] body like any other answer, before anything is
   written, so it costs that one request: the connection and the shard
   keep serving.

   Codec negotiation is first-bytes sniffing, per connection: payloads
   starting with [Binary.magic] speak length-prefixed [htlc-serve/b1],
   anything else is newline-delimited [htlc-serve/v1] JSON (canonical
   requests start ['{'], so the magic is unambiguous; bytes that are a
   strict prefix of the magic park the decision until more arrive).

   Fault behaviour matches the old transport: read/write errors are
   counted and classified under [serve.connection_errors{reason}], a
   clean EOF is not an error, and protocol violations (oversized
   frame/line) close the connection with a [.protocol] count.  A final
   un-terminated JSON line before EOF is still answered, mirroring
   [input_line]; a torn trailing binary frame is dropped — its length
   prefix promises bytes that never arrived.

   Limits: [select] takes only fds below FD_SETSIZE (1024), so the
   accepter refuses a connection whose fd is at or above it — closed
   at once and counted under [.fd_limit] — rather than hand a shard a
   set that [select] rejects.  A select that fails anyway is counted
   under [.select]; the shard closes the connections select refuses on
   their own and keeps serving the rest.  Readiness scans are
   O(conns) per wake, which is fine into the thousands of connections
   this targets. *)

let read_chunk = 65536
let max_line = Binary.max_frame

(* Stop reading a connection whose unsent responses pile past this;
   select re-admits it once the peer drains.  Bounds memory against a
   client that writes requests but never reads answers. *)
let wbuf_hwm = 1 lsl 20

let m_connections = Obs.Metrics.counter "serve.connections"
let m_conn_errors = Obs.Metrics.counter "serve.connection_errors"

(* Classified sub-counters (the {reason} dimension): registration is
   idempotent, so resolving on each event is cheap and keeps the set of
   reasons open-ended. *)
let count_conn_error_reason reason =
  Obs.Metrics.incr m_conn_errors;
  Obs.Metrics.incr (Obs.Metrics.counter ("serve.connection_errors." ^ reason))

(* EPIPE and ECONNRESET get their own buckets — they are the signature
   of mid-response disconnects and resets, exactly what the chaos
   transport injects — everything else folds into coarse classes. *)
let conn_error_reason = function
  | Sys_error _ -> "sys_error"
  | Unix.Unix_error (Unix.EPIPE, _, _) -> "epipe"
  | Unix.Unix_error (Unix.ECONNRESET, _, _) -> "econnreset"
  | Unix.Unix_error (_, _, _) -> "unix_error"
  | _ -> "handler_crash"

let count_conn_error exn = count_conn_error_reason (conn_error_reason exn)

type codec = Detecting | Json | Binary_b1

type conn = {
  fd : Unix.file_descr;
  rbuf : Iobuf.t;
  wbuf : Iobuf.t;
  mutable codec : codec;
  mutable eof : bool;  (* peer half-closed; flush what is owed, then close *)
  mutable dead : bool;  (* closed; reaped at the end of the loop pass *)
  (* Stage clocks of answered-but-unflushed requests, in arrival
     order; finalised when the write buffer drains to the kernel, or
     at [kill].  A growable array rather than a list: appending a cons
     cell per request and reversing at flush cost ~6 words/request,
     and the array doubles rarely then never allocates again.  Empty
     whenever telemetry is disabled. *)
  mutable pending : Telemetry.clock array;
  mutable n_pending : int;
  (* Finalised clocks recycled through [Telemetry.reinit]: a pipelining
     connection reuses the same few records instead of allocating one
     per request (the flight recorder copies, so a finalised clock has
     no other owner).  Overflow past the stack just falls back to
     [Telemetry.make]. *)
  spares : Telemetry.clock array;
  mutable n_spare : int;
}

type shard = {
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  inbox_mutex : Mutex.t;
  mutable inbox : Unix.file_descr list;
  (* Below: shard-domain-owned, no lock. *)
  mutable conns : conn list;
  mutable domain : unit Domain.t option;
}

type t = {
  engine : Engine.t;
  listen_fd : Unix.file_descr;
  shards_ : shard array;
  closing : bool Atomic.t;
  next_shard : int Atomic.t;
  mutable accepter : unit Domain.t option;
}

let shards t = Array.length t.shards_

(* --- cross-domain handoff ------------------------------------------------- *)

let notify s =
  let b = Bytes.make 1 'w' in
  match Unix.single_write s.wake_w b 0 1 with
  | _ -> ()
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    (* Pipe full: a wake-up is already pending, which is all we need. *)
    ()

let rec drain_wake s buf =
  match Unix.read s.wake_r buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | n -> if n = Bytes.length buf then drain_wake s buf

(* --- per-connection state machine ----------------------------------------- *)

let add_pending conn clock =
  let n = conn.n_pending in
  if n = Array.length conn.pending then begin
    let bigger = Array.make (max 16 (2 * n)) Telemetry.none in
    Array.blit conn.pending 0 bigger 0 n;
    conn.pending <- bigger
  end;
  conn.pending.(n) <- clock;
  conn.n_pending <- n + 1

let finalize_pending conn =
  if conn.n_pending > 0 then begin
    let now = Telemetry.now_ns () in
    for i = 0 to conn.n_pending - 1 do
      let c = conn.pending.(i) in
      conn.pending.(i) <- Telemetry.none;
      Telemetry.finish c ~flush_ns:now;
      if conn.n_spare < Array.length conn.spares then begin
        conn.spares.(conn.n_spare) <- c;
        conn.n_spare <- conn.n_spare + 1
      end
    done;
    conn.n_pending <- 0
  end

let take_clock conn ~codec ~read_ns =
  if conn.n_spare > 0 then begin
    let n = conn.n_spare - 1 in
    conn.n_spare <- n;
    let c = conn.spares.(n) in
    conn.spares.(n) <- Telemetry.none;
    Telemetry.reinit c ~codec ~read_ns
  end
  else Telemetry.make ~codec ~read_ns

let kill conn =
  if not conn.dead then begin
    conn.dead <- true;
    (* Whatever was answered but never flushed still finalises — the
       flight recorder must see requests that died mid-write. *)
    finalize_pending conn;
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Returns [true] once the codec is known; [false] parks the decision
   (buffered bytes are a strict prefix of the magic). *)
let detect conn =
  let l = Iobuf.length conn.rbuf in
  let m = min l 4 in
  let is_prefix = ref true in
  for i = 0 to m - 1 do
    if Iobuf.get conn.rbuf i <> Binary.magic.[i] then is_prefix := false
  done;
  if not !is_prefix then begin
    conn.codec <- Json;
    true
  end
  else if l >= 4 then begin
    Iobuf.consume conn.rbuf 4;
    conn.codec <- Binary_b1;
    true
  end
  else false

(* Answer one request into the connection's write buffer: the engine's
   body ([reject]'s for bytes that did not decode) spliced in place
   with the request's id, as a JSON line or a b1 frame — no response
   string is built.  The body is in hand before anything is appended,
   so a handler crash still writes exactly one answer. *)
let respond t conn clock ~framed decoded =
  Telemetry.stamp_decode clock;
  (match decoded with
  | Ok (req : Request.t) ->
    Response.splice conn.wbuf ~framed ~id:req.id
      (Engine.answer ~clock t.engine req)
  | Error (err : Request.error) ->
    Response.splice conn.wbuf ~framed ~id:err.err_id
      (Engine.reject ~clock t.engine err));
  Telemetry.stamp_encode clock;
  if Telemetry.is_real clock then add_pending conn clock

let answer_json t conn ~read_ns line =
  if String.trim line <> "" then begin
    let clock = take_clock conn ~codec:"json" ~read_ns in
    respond t conn clock ~framed:false (Request.decode line)
  end

(* [read_ns] is the read-complete stamp for every request in this
   batch: pipelined requests that arrived in one readiness event share
   the timestamp of the read that completed them. *)
let rec process t conn ~read_ns =
  if not conn.dead then
    match conn.codec with
    | Detecting -> if detect conn then process t conn ~read_ns
    | Json -> (
      match Iobuf.index conn.rbuf '\n' with
      | -1 ->
        if Iobuf.length conn.rbuf > max_line then begin
          count_conn_error_reason "protocol";
          kill conn
        end
      | i ->
        let line = Iobuf.sub conn.rbuf 0 i in
        Iobuf.consume conn.rbuf (i + 1);
        answer_json t conn ~read_ns line;
        process t conn ~read_ns)
    | Binary_b1 -> (
      match Binary.decode_frame conn.rbuf with
      | `Need_more -> ()
      | `Too_large _ ->
        count_conn_error_reason "protocol";
        kill conn
      | `Frame payload ->
        let clock = take_clock conn ~codec:"binary" ~read_ns in
        respond t conn clock ~framed:true (Binary.decode_payload payload);
        process t conn ~read_ns)

let rec try_flush conn =
  if (not conn.dead) && not (Iobuf.is_empty conn.wbuf) then
    match Iobuf.write conn.wbuf conn.fd with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception exn ->
      (* Write into a reset/closed peer: classify and reclaim the slot —
         never die silently, never take the shard down. *)
      count_conn_error exn;
      kill conn
    | 0 -> ()
    | _ -> try_flush conn

let flush_and_reap conn =
  try_flush conn;
  (* Every buffered response reached the kernel: that is the flush
     stamp for everything answered on this connection so far.  (On a
     partial flush the clocks wait for the next writable pass — the
     flush stage measures the peer's drain, which is the point.) *)
  if (not conn.dead) && Iobuf.is_empty conn.wbuf then finalize_pending conn;
  if (not conn.dead) && conn.eof && Iobuf.is_empty conn.wbuf then kill conn

let handle_read t conn =
  match Iobuf.refill conn.rbuf conn.fd ~max:read_chunk with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception exn ->
    count_conn_error exn;
    kill conn
  | 0 ->
    (* EOF.  Mirror [input_line]: a final un-terminated JSON line is
       still a request; a torn trailing binary frame is not (its length
       prefix promises bytes that never arrived). *)
    conn.eof <- true;
    (match conn.codec with
    | Detecting | Json ->
      if Iobuf.length conn.rbuf > 0 then begin
        let line = Iobuf.sub conn.rbuf 0 (Iobuf.length conn.rbuf) in
        Iobuf.consume conn.rbuf (Iobuf.length conn.rbuf);
        conn.codec <- Json;
        answer_json t conn ~read_ns:(Telemetry.now_ns ()) line
      end
    | Binary_b1 -> ());
    flush_and_reap conn
  | _n ->
    let read_ns =
      if Telemetry.enabled () then Telemetry.now_ns () else 0
    in
    process t conn ~read_ns;
    flush_and_reap conn

(* --- shard event loop ------------------------------------------------------ *)

(* [select] takes only fds below FD_SETSIZE and refuses, with EINVAL
   and before any syscall, a set holding one that is not; so a
   zero-timeout select on [fd] alone says whether a shard can wait on
   it (EBADF says it is gone). *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error (_, _, _) -> false

let make_conn fd =
  {
    fd;
    rbuf = Iobuf.create ~initial:8192 ();
    wbuf = Iobuf.create ~initial:8192 ();
    codec = Detecting;
    eof = false;
    dead = false;
    pending = [||];
    n_pending = 0;
    spares = Array.make 128 Telemetry.none;
    n_spare = 0;
  }

let shard_loop t s =
  let wake_buf = Bytes.create 64 in
  let rec loop () =
    (* Adopt newly accepted connections first, so a shutdown pass below
       closes them too instead of leaking the fds. *)
    Mutex.lock s.inbox_mutex;
    let fresh = s.inbox in
    s.inbox <- [];
    Mutex.unlock s.inbox_mutex;
    List.iter (fun fd -> s.conns <- make_conn fd :: s.conns) fresh;
    if Atomic.get t.closing then begin
      List.iter kill s.conns;
      s.conns <- []
    end
    else begin
      let rds =
        s.wake_r
        :: List.filter_map
             (fun c ->
               if (not c.dead) && (not c.eof) && Iobuf.length c.wbuf < wbuf_hwm
               then Some c.fd
               else None)
             s.conns
      in
      let wrs =
        List.filter_map
          (fun c ->
            if (not c.dead) && not (Iobuf.is_empty c.wbuf) then Some c.fd
            else None)
          s.conns
      in
      (match Unix.select rds wrs [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) ->
        (* select refused the whole set: count it, close what select
           refuses on its own, and keep serving the rest — the shard
           domain must not end with its connections. *)
        count_conn_error_reason "select";
        List.iter
          (fun c -> if (not c.dead) && not (selectable c.fd) then kill c)
          s.conns;
        s.conns <- List.filter (fun c -> not c.dead) s.conns
      | rready, wready, _ ->
        if List.memq s.wake_r rready then drain_wake s wake_buf;
        (* A bug in per-connection handling must cost that connection,
           never the shard: classify, reclaim the slot, keep looping. *)
        let protect f c =
          try f c
          with exn ->
            count_conn_error exn;
            kill c
        in
        List.iter
          (fun c ->
            if (not c.dead) && List.memq c.fd wready then
              protect flush_and_reap c)
          s.conns;
        List.iter
          (fun c ->
            if (not c.dead) && List.memq c.fd rready then
              protect (handle_read t) c)
          s.conns;
        s.conns <- List.filter (fun c -> not c.dead) s.conns);
      loop ()
    end
  in
  loop ()

(* --- accepter -------------------------------------------------------------- *)

let rec accept_loop t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
  | exception _ ->
    (* The listening socket was shut down (or the process is in real
       trouble); either way stop accepting. *)
    ()
  | fd, _ ->
    if Atomic.get t.closing then
      (* Shutdown's wake-up self-connect (or a client that lost the
         race with it): drop it and stop accepting. *)
      try Unix.close fd with Unix.Unix_error _ -> ()
    else if not (selectable fd) then begin
      (* At or above FD_SETSIZE: no shard can wait on it, and one such
         fd in a shard's set would make every select there fail.
         Refuse it; the peer sees EOF. *)
      Obs.Metrics.incr m_connections;
      count_conn_error_reason "fd_limit";
      (try Unix.close fd with Unix.Unix_error _ -> ());
      accept_loop t
    end
    else begin
      Obs.Metrics.incr m_connections;
      (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
      let i = Atomic.fetch_and_add t.next_shard 1 mod Array.length t.shards_ in
      let s = t.shards_.(i) in
      Mutex.lock s.inbox_mutex;
      s.inbox <- fd :: s.inbox;
      Mutex.unlock s.inbox_mutex;
      notify s;
      accept_loop t
    end

(* --- lifecycle ------------------------------------------------------------- *)

let start engine ~listen_fd ?shards () =
  let shards =
    match shards with
    | None -> Numerics.Pool.jobs ()
    | Some n when n >= 1 -> n
    | Some _ -> invalid_arg "Reactor.start: shards must be >= 1"
  in
  let mk_shard () =
    let wake_r, wake_w = Unix.pipe () in
    Unix.set_nonblock wake_r;
    Unix.set_nonblock wake_w;
    {
      wake_r;
      wake_w;
      inbox_mutex = Mutex.create ();
      inbox = [];
      conns = [];
      domain = None;
    }
  in
  let t =
    {
      engine;
      listen_fd;
      shards_ = Array.init shards (fun _ -> mk_shard ());
      closing = Atomic.make false;
      next_shard = Atomic.make 0;
      accepter = None;
    }
  in
  Array.iter
    (fun s -> s.domain <- Some (Domain.spawn (fun () -> shard_loop t s)))
    t.shards_;
  t.accepter <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let stop ?wake t =
  if not (Atomic.exchange t.closing true) then begin
    (* Waking a blocked [accept]: closing the fd does NOT interrupt a
       thread already parked in accept(2) on Linux, so shut the
       listening socket down (pops the accept with an error); [wake] is
       the caller's fallback for platforms that ignore listening-socket
       shutdown (the server self-connects). *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (match wake with Some f -> f () | None -> ());
    Option.iter Domain.join t.accepter;
    t.accepter <- None;
    (* The accepter is gone, so inboxes are frozen; each shard adopts
       its inbox before checking [closing], closes everything, and
       exits. *)
    Array.iter notify t.shards_;
    Array.iter
      (fun s ->
        Option.iter Domain.join s.domain;
        s.domain <- None)
      t.shards_;
    Array.iter
      (fun s ->
        (try Unix.close s.wake_r with Unix.Unix_error _ -> ());
        try Unix.close s.wake_w with Unix.Unix_error _ -> ())
      t.shards_
  end
