(* Socket smoke: the CI proof that the event-loop transport serves both
   wire codecs correctly end-to-end, and that the serve-telemetry layer
   observes that traffic.

   Forces sampling to 1-in-1 and a small flight-recorder bound, then
   drives the fixed serve_requests.txt script through a single-shard
   Unix-domain-socket reactor server on one engine:

   - JSON leg: all lines written in a single burst on one connection
     (exercising request pipelining and response batching), responses
     recorded one per line — the same transcript pipe-mode serve-smoke
     pins, now produced by the reactor.
   - Binary leg: every line the request codec can decode is re-encoded
     as an htlc-serve/b1 frame and sent on a fresh connection after the
     magic, again in one burst.  Response frame bodies are recorded one
     per line; validate_serve --reactor pins them byte-identical to the
     JSON leg's rows (health excepted — it reports live cache state,
     which the JSON leg's traffic has advanced).
   - Stats: the uncached `stats` request once over each codec, then the
     flight-recorder dump.

   A single shard serialises the event loop, so every earlier request's
   stage clock is finalised before the next connection is even read —
   the stats responses and the recorder dump are deterministic in
   everything validate_serve --telemetry pins.  Response bytes do not
   depend on the shard count or the sampling rate.

   Artefacts:
   - OUT_JSON, OUT_BIN: the two legs' response rows.
   - OUT_STATS: two response lines for `stats` — one served over JSON,
     one over htlc-serve/b1.
   - OUT_RECORDER: the flight-recorder dump (htlc-obs/v1 JSONL, one
     recorder header + one line per held request record).

   Usage: socket_smoke REQUESTS OUT_JSON OUT_BIN OUT_STATS OUT_RECORDER *)

let read_lines file =
  In_channel.with_open_text file (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some l -> go (l :: acc)
        | None -> List.rev acc
      in
      go [])

let write_lines file rows =
  Out_channel.with_open_text file (fun o ->
      List.iter
        (fun r ->
          Out_channel.output_string o r;
          Out_channel.output_char o '\n')
        rows)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let binary_row ic =
  match Serve.Binary.input_frame ic with
  | Some body -> body
  | None -> failwith "socket_smoke: server closed mid-binary-leg"

let () =
  let requests_file, out_json, out_bin, out_stats, out_recorder =
    match Sys.argv with
    | [| _; a; b; c; d; e |] -> (a, b, c, d, e)
    | _ ->
      prerr_endline
        "usage: socket_smoke REQUESTS OUT_JSON OUT_BIN OUT_STATS OUT_RECORDER";
      exit 2
  in
  let lines =
    List.filter (fun l -> String.trim l <> "") (read_lines requests_file)
  in
  Serve.Telemetry.set_enabled true;
  Serve.Telemetry.set_sample_every 1;
  Serve.Telemetry.set_recorder_capacity 64;
  Serve.Telemetry.reset ();
  let mus = Numerics.Grid.linspace ~lo:(-0.01) ~hi:0.01 ~n:3
  and sigmas = Numerics.Grid.linspace ~lo:0.02 ~hi:0.16 ~n:3 in
  let engine = Serve.Engine.create ~mus ~sigmas () in
  let path = Printf.sprintf "/tmp/htlc-socket-smoke-%d.sock" (Unix.getpid ()) in
  let server = Serve.Server.listen engine ~path ~shards:1 () in
  (* --- JSON leg: one pipelined burst --------------------------------- *)
  let fd, ic, oc = connect path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  flush oc;
  let json_rows = List.map (fun _ -> input_line ic) lines in
  Unix.close fd;
  write_lines out_json json_rows;
  (* --- binary leg: every decodable request, re-framed ----------------- *)
  let decodable =
    List.filter_map
      (fun l ->
        match Serve.Request.decode l with
        | Ok req -> Some req
        | Error _ -> None)
      lines
  in
  let fd, ic, oc = connect path in
  output_string oc Serve.Binary.magic;
  List.iter
    (fun r -> output_string oc (Serve.Binary.encode_request r))
    decodable;
  flush oc;
  let bin_rows = List.map (fun _ -> binary_row ic) decodable in
  Unix.close fd;
  write_lines out_bin bin_rows;
  (* --- stats over both codecs ----------------------------------------- *)
  let fd, ic, oc = connect path in
  output_string oc
    "{\"schema\":\"htlc-serve/v1\",\"id\":\"stats-json\",\"req\":\"stats\"}\n";
  flush oc;
  let stats_json_row = input_line ic in
  Unix.close fd;
  let fd, ic, oc = connect path in
  output_string oc Serve.Binary.magic;
  output_string oc
    (Serve.Binary.encode_request
       { Serve.Request.id = Some "stats-b1"; body = Serve.Request.Stats });
  flush oc;
  let stats_b1_row = binary_row ic in
  Unix.close fd;
  write_lines out_stats [ stats_json_row; stats_b1_row ];
  (* Shut down before dumping: joining the reactor shard guarantees the
     last clocks (including both stats requests') are finalised. *)
  Serve.Server.shutdown server;
  Out_channel.with_open_text out_recorder
    (Serve.Telemetry.write_recorder ~reason:"telemetry_smoke");
  Printf.eprintf
    "socket_smoke: %d json rows, %d binary rows, %d recorded (%d pushed)\n"
    (List.length json_rows) (List.length bin_rows)
    (Serve.Telemetry.recorder_recorded ())
    (Serve.Telemetry.recorder_pushed ())
