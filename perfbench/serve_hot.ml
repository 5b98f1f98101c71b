(* Workload [serve-hot]: quote traffic over a real Unix socket.  One
   reactor shard serves an engine with its default cache and sampler
   (reduced quote grid); one client in the main domain keeps one
   pipelined window in flight on each of two connections, one speaking
   JSON and one htlc-serve/b1.  ~90% of requests come from a hot set of
   40 questions over the five cacheable kinds, ~10% are one-off quotes
   at fresh spots, and a [stats] poll goes out every 1000 requests.
   Cache hits make compute negligible, so codec, cache, telemetry and
   reactor costs dominate. *)

open Util
module R = Serve.Request

let base = Swap.Params.defaults
let mus = [| -0.005; 0.005 |]
let sigmas = [| 0.04; 0.1 |]
let hot_size = 40
let tokens = [| "BTC"; "ETH"; "SOL"; "USDC"; "XMR" |]

(* Each connection cycles through its own ring of [ring] requests in
   windows of [window].  The two rings hold ~1640 one-off quotes, more
   than the cache's 1024 entries, so each one is evicted before it comes
   round again: one-offs always miss, hot questions always hit. *)
let ring = 8192
let window = 32
let stats_every = 1000

type slot = Hot | Cold_quote | Stats

(* What position [j] of connection [c]'s ring asks, decided by [c] and
   [j] alone: a stats poll every [stats_every] requests overall (each
   connection polls every other time, half a cycle apart), a one-off
   quote every tenth, otherwise a hot question. *)
let slot_kind c j =
  if j mod (2 * stats_every) = ((c + 1) * stats_every) - 1 then Stats
  else if j mod 10 = 9 then Cold_quote
  else Hot

let quote_inputs rng =
  let mu = uniform rng (-0.004) 0.004 in
  let sigma = uniform rng 0.05 0.09 in
  let spot = uniform rng 1.5 2.5 in
  R.Quote { mu; sigma; spot }

(* Slot [k] asks a question of kind [k mod 5], so every seed has the
   same mix; the values come from the seed. *)
let hot_set ~seed =
  let rng = Numerics.Rng.of_stream ~seed ~stream:11 () in
  let params = base in
  Array.init hot_size (fun k ->
      match k mod 5 with
      | 0 -> R.Cutoffs { params; p_star = uniform rng 1.7 2.3 }
      | 1 ->
        let p_star = uniform rng 1.7 2.3 in
        let q = if k / 5 mod 2 = 0 then 0. else uniform rng 0.1 0.5 in
        R.Success_rate { params; p_star; q }
      | 2 ->
        let lo = uniform rng 1.6 1.8 in
        let hi = uniform rng 2.2 2.4 in
        R.Sweep { params; q = 0.; spec = { R.lo; hi; n = 5 } }
      | 3 -> quote_inputs rng
      | _ ->
        let a = Numerics.Rng.int_below rng 5 in
        let b = (a + 1 + Numerics.Rng.int_below rng 4) mod 5 in
        R.Route { from_tok = tokens.(a); to_tok = tokens.(b); max_hops = 3 })

let corpus ~seed ~hot c =
  let rng = Numerics.Rng.of_stream ~seed ~stream:(12 + c) () in
  Array.init ring (fun j ->
      let id = Some (Printf.sprintf "r%d" ((c * ring) + j)) in
      let body =
        match slot_kind c j with
        | Stats -> R.Stats
        | Cold_quote -> quote_inputs rng
        | Hot -> hot.(((j * 7) + (c * 13)) mod hot_size)
      in
      { R.id; body })

type server = {
  table : Market.Quote_table.t;
  engine : Serve.Engine.t;
  listener : Serve.Server.t;
}

(* The program's set-up: quote grid, engine, listening reactor, and the
   warm pass that computes every hot question once on the cold engine.
   Clears the cutoff memo first, so a set-up that follows another
   ladder in the same process starts from the same state as a fresh
   one. *)
let setup ?sp ~seed ~path () =
  Swap.Cutoff.clear_caches ();
  let span name f = Spans.opt sp name f in
  let table = span "quote_table.build" (fun () -> Market.Quote_table.build ~mus ~sigmas base) in
  let engine = span "engine.create" (fun () -> Serve.Engine.create ~table ~base ()) in
  let listener = Serve.Server.listen engine ~path ~shards:1 () in
  let hot =
    Array.mapi (fun k body -> { R.id = Some (Printf.sprintf "w%d" k); body }) (hot_set ~seed)
  in
  Array.iter
    (fun req ->
      ignore
        (span ("engine.miss." ^ R.kind req) (fun () -> Serve.Engine.handle_decoded engine req)))
    hot;
  { table; engine; listener }

(* --- the checked client ---------------------------------------------------- *)

(* What a response must be: the reference's bytes, or for a stats poll,
   whose answer is live state, the shape [<prefix>{...}]. *)
type answer = Exact of string | Stats_prefix of string

let stats_prefix id =
  let s = Serve.Response.assemble ~id (Serve.Response.ok_body ~req:"stats" ~result:"{") in
  Stats_prefix (String.sub s 0 (String.length s - 1))

let accepts answer resp =
  match answer with
  | Exact e -> String.equal e resp
  | Stats_prefix p -> String.starts_with ~prefix:p resp && String.ends_with ~suffix:"}}" resp

type conn = {
  fd : Unix.file_descr;
  binary : bool;
  blobs : string array;  (** the wire bytes of each window *)
  expected : answer array;  (** per ring position *)
  mutable buf : Bytes.t;
  mutable rd : int;
  mutable wr : int;
  mutable win : int;  (** windows sent so far *)
  mutable got : int;  (** responses received in the current window *)
  mutable t_send : int;
  mutable open_ : bool;  (** a window is in flight *)
}

type traffic = {
  reqs : R.t array array;  (** per connection *)
  wire : string array array;  (** per request: JSON line or b1 payload *)
  expected : answer array array;
}

(* The expected answers come from [reference], an identically configured
   engine answering the same typed requests in-process. *)
let traffic ~seed ~reference =
  let hot = hot_set ~seed in
  let reqs = Array.init 2 (fun c -> corpus ~seed ~hot c) in
  let expected =
    Array.map
      (Array.map (fun (r : R.t) ->
           if r.body = R.Stats then stats_prefix r.id
           else Exact (Serve.Engine.handle_decoded reference r)))
      reqs
  in
  let wire =
    [| Array.map R.encode reqs.(0); Array.map Serve.Binary.encode_payload reqs.(1) |]
  in
  { reqs; wire; expected }

let write_all fd s =
  let n = String.length s in
  let rec go o = if o < n then go (o + Unix.write_substring fd s o (n - o)) in
  go 0

let connect ~path ~binary (t : traffic) c =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let wire =
    if binary then Array.map Serve.Binary.encode_request t.reqs.(c)
    else Array.map (fun line -> line ^ "\n") t.wire.(c)
  in
  let blobs =
    Array.init (ring / window) (fun k ->
        String.concat "" (Array.to_list (Array.sub wire (k * window) window)))
  in
  let conn =
    {
      fd; binary; blobs; expected = t.expected.(c);
      buf = Bytes.create (1 lsl 16); rd = 0; wr = 0; win = 0; got = 0; t_send = 0; open_ = false;
    }
  in
  if binary then write_all fd Serve.Binary.magic;
  conn

let send_window c =
  write_all c.fd c.blobs.(c.win mod Array.length c.blobs);
  c.t_send <- now_ns ();
  c.got <- 0;
  c.open_ <- true

(* The next complete response in [c]'s buffer as (offset, length). *)
let next_response c =
  if c.binary then
    if c.wr - c.rd < 4 then None
    else
      let b i = Char.code (Bytes.get c.buf (c.rd + i)) in
      let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if c.wr - c.rd < 4 + len then None
      else begin
        let off = c.rd + 4 in
        c.rd <- off + len;
        Some (off, len)
      end
  else
    let rec nl i = if i >= c.wr then None else if Bytes.get c.buf i = '\n' then Some i else nl (i + 1) in
    match nl c.rd with
    | Some i ->
      let off = c.rd in
      c.rd <- i + 1;
      Some (off, i - off)
    | None -> None

(* Exact answers are compared in place, without copying the response. *)
let matches (c : conn) off len pos =
  match c.expected.(pos) with
  | Exact e ->
    len = String.length e
    &&
    let rec eq i = i >= len || (Bytes.unsafe_get c.buf (off + i) = String.unsafe_get e i && eq (i + 1)) in
    eq 0
  | stats -> accepts stats (Bytes.sub_string c.buf off len)

let fill c =
  if c.rd > 0 && c.rd = c.wr then begin
    c.rd <- 0;
    c.wr <- 0
  end;
  if Bytes.length c.buf - c.wr < 4096 then begin
    let live = c.wr - c.rd in
    let nb = if live > Bytes.length c.buf / 2 then Bytes.create (2 * Bytes.length c.buf) else c.buf in
    Bytes.blit c.buf c.rd nb 0 live;
    c.buf <- nb;
    c.rd <- 0;
    c.wr <- live
  end;
  let n = Unix.read c.fd c.buf c.wr (Bytes.length c.buf - c.wr) in
  c.wr <- c.wr + n;
  n

let windows = ring / window

let stall_s = 10.

(* Closed loop for [seconds], then drain what is in flight.  Latency
   runs from the send of a request's window to the arrival of its
   response.  A response that is wrong, missing or extra is a failed
   op; a connection that goes silent for [stall_s] ends the phase with
   its window missing.  Returns the requests sent. *)
let run_client conns ph ~seconds =
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let sent = ref 0 and received = ref 0 in
  let send c =
    send_window c;
    sent := !sent + window
  in
  let on_response c t (off, len) =
    if not c.open_ then ph.failed <- ph.failed + 1
    else begin
      let pos = (c.win mod windows * window) + c.got in
      if not (matches c off len pos) then ph.failed <- ph.failed + 1;
      completed ph t ~lat_us:(float_of_int (t - c.t_send) *. 1e-3);
      incr received;
      c.got <- c.got + 1;
      if c.got = window then begin
        c.win <- c.win + 1;
        c.open_ <- false;
        if t < deadline then send c
      end
    end
  in
  start_slices ph;
  (try
     Array.iter send conns;
     while Array.exists (fun c -> c.open_) conns do
       let live = List.filter (fun c -> c.open_) (Array.to_list conns) in
       match Unix.select (List.map (fun c -> c.fd) live) [] [] stall_s with
       | [], _, _ -> raise Exit
       | ready, _, _ ->
         let t = now_ns () in
         List.iter
           (fun c ->
             if List.memq c.fd ready then begin
               if fill c = 0 then raise Exit;
               let rec drain () =
                 match next_response c with
                 | Some r ->
                   on_response c t r;
                   drain ()
                 | None -> ()
               in
               drain ()
             end)
           live
     done
   with Exit | Unix.Unix_error _ -> Array.iter (fun c -> c.open_ <- false) conns);
  ph.wall_s <- ph.wall_s +. elapsed_s t_start;
  ph.failed <- ph.failed + (!sent - !received);
  !sent

let open_conns ~path tr =
  [| connect ~path ~binary:false tr 0; connect ~path ~binary:true tr 1 |]

let close_conns conns = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns

let cache_delta (s0 : Serve.Engine.stats) (s1 : Serve.Engine.stats) =
  let hits = s1.cache.hits - s0.cache.hits and misses = s1.cache.misses - s0.cache.misses in
  let lookups = max 1 (hits + misses) in
  ( float_of_int hits /. float_of_int lookups,
    1000. *. float_of_int (s1.cache.evictions - s0.cache.evictions) /. float_of_int lookups )

let sock_path out = Filename.concat out (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

(* Every engine keeps a worker domain that no stable call stops, and
   each idle domain still takes part in every stop-the-world minor
   collection.  So a run creates two engines, the served one and the
   reference, and no more. *)
let reference srv = Serve.Engine.create ~table:srv.table ~base ()

let run ~seed ~seconds ~out =
  let path = sock_path out in
  let t0 = now_ns () in
  let srv = setup ~seed ~path () in
  let setup_s = elapsed_s t0 in
  let tr = traffic ~seed ~reference:(reference srv) in
  let conns = open_conns ~path tr in
  let s0 = Serve.Engine.stats srv.engine in
  let ph = new_phase () in
  let sent = run_client conns ph ~seconds in
  let hit_ratio, evictions = cache_delta s0 (Serve.Engine.stats srv.engine) in
  Printf.printf "cache hit ratio %.4f, %.2f evictions per 1000 lookups\n" hit_ratio evictions;
  close_conns conns;
  Serve.Server.shutdown srv.listener;
  end_to_end ph ~setup_s ~attempted:sent

(* --- traced run ---------------------------------------------------------- *)

let handle_span = function
  | Hot -> "engine.handle[hot]"
  | Cold_quote -> "engine.handle[cold_quote]"
  | Stats -> "engine.handle[stats]"

let handle_decoded_span = function
  | Hot -> "engine.handle_decoded[hot]"
  | Cold_quote -> "engine.handle_decoded[cold_quote]"
  | Stats -> "engine.handle_decoded[stats]"

(* The reactor hides the calls inside it, so the traced run replays the
   same traffic in-process through the public serve functions, each
   request with a real telemetry clock finished at the end as the
   reactor does. *)
let replay ?sp srv tr ph ~seconds =
  let span name f = Spans.opt sp name f in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  start_slices ph;
  let k = ref 0 in
  while now_ns () < deadline do
    for c = 0 to 1 do
      for j = !k mod windows * window to (!k mod windows * window) + window - 1 do
        (match sp with Some s -> Spans.set_op s ((c * ring) + j) | None -> ());
        let t0 = now_ns () in
        let clock =
          Serve.Telemetry.make ~codec:(if c = 0 then "json" else "binary")
            ~read_ns:(Serve.Telemetry.now_ns ())
        in
        let resp =
          if c = 0 then
            span (handle_span (slot_kind c j)) (fun () ->
                Serve.Engine.handle ~clock srv.engine tr.wire.(0).(j))
          else
            match span "binary.decode" (fun () -> Serve.Binary.decode_payload tr.wire.(1).(j)) with
            | Ok req ->
              span (handle_decoded_span (slot_kind c j)) (fun () ->
                  Serve.Engine.handle_decoded ~clock srv.engine req)
            | Error _ -> ""
        in
        span "telemetry.finish" (fun () -> Serve.Telemetry.finish_now clock);
        let t1 = now_ns () in
        if not (accepts tr.expected.(c).(j) resp) then ph.failed <- ph.failed + 1;
        completed ph t1 ~lat_us:(float_of_int (t1 - t0) *. 1e-3)
      done
    done;
    incr k
  done;
  ph.wall_s <- ph.wall_s +. elapsed_s t_start

let micro_rungs sp srv tr =
  let hot_pos = List.filter (fun j -> slot_kind 0 j = Hot) (List.init 64 Fun.id) |> Array.of_list in
  let lines = Array.map (fun j -> tr.wire.(0).(j)) hot_pos in
  let payloads = Array.map (fun j -> tr.wire.(1).(j)) hot_pos in
  let reqs = Array.map (fun j -> tr.reqs.(0).(j)) hot_pos in
  let n = Array.length hot_pos in
  let ok = ref true in
  let decode_ns =
    Spans.per_call_ns sp "request.decode[hot]" ~batches:300 ~per_batch:n (fun () ->
        Array.iter (fun l -> if Result.is_error (R.decode l) then ok := false) lines)
  in
  let binary_ns =
    Spans.per_call_ns sp "binary.decode_payload[hot]" ~batches:300 ~per_batch:n (fun () ->
        Array.iter (fun p -> if Result.is_error (Serve.Binary.decode_payload p) then ok := false) payloads)
  in
  let keys = Array.map R.key reqs in
  let key_ns =
    Spans.per_call_ns sp "request.key[hot]" ~batches:300 ~per_batch:n (fun () ->
        Array.iter (fun r -> if R.key r = "" then ok := false) reqs)
  in
  let cache = Serve.Cache.create () in
  Array.iteri (fun i k -> Serve.Cache.add cache k tr.wire.(0).(hot_pos.(i))) keys;
  let find_ns =
    Spans.per_call_ns sp "cache.find[hot]" ~batches:300 ~per_batch:n (fun () ->
        Array.iter (fun k -> if Serve.Cache.find cache k = None then ok := false) keys)
  in
  (* Telemetry on (a real clock per request, finished) against off,
     in alternating batches of the same hot lines. *)
  let with_clock () =
    Array.iter
      (fun l ->
        let clock = Serve.Telemetry.make ~codec:"json" ~read_ns:(Serve.Telemetry.now_ns ()) in
        ignore (Serve.Engine.handle ~clock srv.engine l);
        Serve.Telemetry.finish_now clock)
      lines
  in
  let without () = Array.iter (fun l -> ignore (Serve.Engine.handle srv.engine l)) lines in
  let on = Samples.create () and off = Samples.create () in
  for _ = 1 to 200 do
    let t0 = now_ns () in
    with_clock ();
    Samples.add on (float_of_int (now_ns () - t0) /. float_of_int n);
    Serve.Telemetry.set_enabled false;
    let t0 = now_ns () in
    without ();
    Samples.add off (float_of_int (now_ns () - t0) /. float_of_int n);
    Serve.Telemetry.set_enabled true
  done;
  let med s = percentile (Samples.sorted s) 0.5 in
  let stats_ns =
    Spans.per_call_ns sp "telemetry.stats_json" ~batches:20 ~per_batch:5 (fun () ->
        for _ = 1 to 5 do
          if Serve.Telemetry.stats_json () = "" then ok := false
        done)
  in
  if not !ok then print_endline "serve-hot: a layer rung returned a wrong answer";
  ( decode_ns, binary_ns, key_ns, find_ns, med on -. med off, stats_ns )

let replay_cap_s = 4.

let traced ~seed ~seconds ~out =
  let path = sock_path out in
  let sp = Spans.create () in
  Spans.set_op sp (-1);
  let srv = setup ~sp ~seed ~path () in
  let tr = traffic ~seed ~reference:(reference srv) in
  let conns = open_conns ~path tr in
  let s0 = Serve.Engine.stats srv.engine in
  let sock = new_phase () in
  let sent = run_client conns sock ~seconds:(seconds /. 2.) in
  let hit_ratio, evictions = cache_delta s0 (Serve.Engine.stats srv.engine) in
  close_conns conns;
  Serve.Server.shutdown srv.listener;
  (* Half of the replay is traced, at ~2.5 spans per request: the cap
     keeps this ladder to ~0.5M spans and its dump to ~55 MB. *)
  let plain, traced_ph, overhead =
    alternate ~seconds:(Float.min (seconds /. 2.) replay_cap_s) ~block:0.25 (fun ~traced ph ~seconds ->
        replay ?sp:(if traced then Some sp else None) srv tr ph ~seconds)
  in
  Spans.set_op sp (-1);
  let decode_ns, binary_ns, key_ns, find_ns, tel_ns, stats_ns = micro_rungs sp srv tr in
  let agg = Spans.aggregate sp in
  let us name = Spans.median_ns agg name *. 1e-3 in
  let per_req_us ph = ph.wall_s *. 1e6 /. float_of_int ph.ops in
  let miss k = rung ("engine.miss_us." ^ k) "us" (us ("engine.miss." ^ k)) in
  let rows =
    [
      rung "cache.find_ns" "ns" find_ns;
      rung "request.key_ns" "ns" key_ns;
      rung "binary.decode_ns" "ns" binary_ns;
      rung "request.decode_ns" "ns" decode_ns;
      rung "telemetry.overhead_ns" "ns" tel_ns;
      rung "engine.hit_us" "us" (us "engine.handle[hot]");
      rung "transport.gap_us" "us" (per_req_us sock -. per_req_us plain);
      rung "engine.cold_quote_us" "us" (us "engine.handle[cold_quote]");
      miss "quote";
      miss "route";
      miss "success_rate";
      miss "sweep";
      rung "telemetry.stats_us" "us" (stats_ns *. 1e-3);
      miss "cutoffs";
      rung "quote_table.build_s" "s" (Spans.median_ns agg "quote_table.build" *. 1e-9);
    ]
  in
  print_table "serve-hot ladder (median per call)" rows;
  Printf.printf
    "  socket %.3f us/request (%d sent), in-process replay %.3f us/request; tracing overhead \
     %.2f%% of replay ops/s\n"
    (per_req_us sock) sent (per_req_us plain) overhead;
  ( sp,
    {
      attempted = sent + plain.ops + traced_ph.ops;
      failed = sock.failed + plain.failed + traced_ph.failed;
      metrics =
        metrics_of_rungs rows
        @ [
            metric "cache.hit_ratio" "ratio" hit_ratio;
            metric "cache.evictions_per_kreq" "count" evictions;
            metric "trace.overhead_pct.serve-hot" "%" overhead;
          ];
    } )
