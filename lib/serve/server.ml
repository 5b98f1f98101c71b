(* Transports: a stdin/stdout pipe loop and a Unix-domain-socket server
   (stdlib Unix only), both speaking htlc-serve protocols.

   Pipe mode answers synchronously on the calling domain — one client,
   natural backpressure, deterministic output for a fixed script (the
   serve-smoke CI check relies on this).

   Socket mode owns the bind/unlink lifecycle of the path and delegates
   connection handling to {!Reactor}: a fixed set of shard domains
   multiplexing non-blocking connections with [select], speaking
   newline-delimited htlc-serve/v1 JSON or length-prefixed
   htlc-serve/b1 binary per first-bytes negotiation.  (Earlier versions
   spawned one blocking handler domain per connection; the reactor
   replaced that — see DESIGN.md §12.) *)

(* A handler writing into a reset connection must see EPIPE — counted
   and classified by the reactor — not the POSIX default of the whole
   process dying of SIGPIPE on the first mid-response disconnect. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

(* --- pipe ----------------------------------------------------------------- *)

let serve_pipe engine ic oc =
  let served = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         let clock =
           Telemetry.make ~codec:"pipe" ~read_ns:(Telemetry.now_ns ())
         in
         output_string oc (Engine.handle ~clock engine line);
         output_char oc '\n';
         flush oc;
         Telemetry.finish_now clock;
         incr served
       end
     done
   with End_of_file -> ());
  !served

(* --- unix-domain socket --------------------------------------------------- *)

type t = {
  path : string;
  listen_fd : Unix.file_descr;
  reactor : Reactor.t;
  close_mutex : Mutex.t;
  mutable closed : bool;
}

(* A Unix-domain socket path cannot be rebound, so a crashed server
   leaves a stale file behind.  unlink-then-bind has two failure modes:
   it silently evicts a *live* server, and between the unlink and the
   bind there is a window with no socket at the path at all.  Instead:
   refuse paths that answer a probe connect (live server — a clear
   EADDRINUSE, not silent eviction), refuse non-socket files (never
   unlink something we did not create), and otherwise bind to a
   process-unique temp path and atomically rename it over the stale
   file — at every instant the path resolves to either the old socket
   or the new one. *)
let check_bindable path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      raise (Unix.Unix_error (Unix.EADDRINUSE, "Serve.Server.listen", path))
  | _ -> raise (Unix.Unix_error (Unix.ENOTSOCK, "Serve.Server.listen", path))

let listen engine ~path ?(backlog = 16) ?shards () =
  (* Before binding: a shard count the reactor would refuse must not
     leave a bound socket file at [path] behind. *)
  (match shards with
  | Some n when n < 1 -> invalid_arg "Serve.Server.listen: shards must be >= 1"
  | _ -> ());
  ignore_sigpipe ();
  check_bindable path;
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  (try Unix.unlink tmp with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX tmp);
     Unix.listen listen_fd backlog;
     (* Atomic replace: the listening socket keeps accepting under its
        new name; a stale file at [path] is overwritten in one step. *)
     Unix.rename tmp path
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     raise e);
  {
    path;
    listen_fd;
    reactor = Reactor.start engine ~listen_fd ?shards ();
    close_mutex = Mutex.create ();
    closed = false;
  }

let reactor_shards t = Reactor.shards t.reactor

let shutdown t =
  Mutex.lock t.close_mutex;
  let already = t.closed in
  t.closed <- true;
  Mutex.unlock t.close_mutex;
  if not already then begin
    (* The reactor shuts the listening socket down itself; the [wake]
       self-connect is the fallback for platforms where that does not
       pop a parked accept(2). *)
    Reactor.stop
      ~wake:(fun () ->
        try
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          (try Unix.connect fd (Unix.ADDR_UNIX t.path)
           with Unix.Unix_error _ -> ());
          Unix.close fd
        with Unix.Unix_error _ -> ())
      t.reactor;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink t.path with Unix.Unix_error _ -> ()
  end
