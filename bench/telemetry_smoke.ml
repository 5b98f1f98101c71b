(* Telemetry socket smoke: the CI proof that the serve-telemetry layer
   observes real reactor traffic end-to-end.

   Forces sampling to 1-in-1 and a small flight-recorder bound, then
   drives the fixed serve_requests.txt script through a single-shard
   reactor server over both wire codecs (the same legs reactor_smoke
   runs).  A single shard serialises the event loop, so every earlier
   request's stage clock is finalised before the next connection is
   even read — the stats responses and the recorder dump are
   deterministic in everything validate_serve --telemetry pins.

   Artefacts:
   - OUT_STATS: two response lines for the uncached `stats` request
     kind — one served over JSON, one over htlc-serve/b1.
   - OUT_RECORDER: the flight-recorder dump (htlc-obs/v1 JSONL, one
     recorder header + one line per held request record).

   Usage: telemetry_smoke REQUESTS OUT_STATS OUT_RECORDER *)

let read_lines file =
  In_channel.with_open_text file (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some l -> go (l :: acc)
        | None -> List.rev acc
      in
      go [])

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let () =
  let requests_file, out_stats, out_recorder =
    match Sys.argv with
    | [| _; a; b; c |] -> (a, b, c)
    | _ ->
      prerr_endline "usage: telemetry_smoke REQUESTS OUT_STATS OUT_RECORDER";
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
  let path =
    Printf.sprintf "/tmp/htlc-telemetry-smoke-%d.sock" (Unix.getpid ())
  in
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
  List.iter (fun r -> output_string oc (Serve.Binary.encode_request r)) decodable;
  flush oc;
  List.iter
    (fun _ ->
      match Serve.Binary.input_frame ic with
      | Some _ -> ()
      | None -> failwith "telemetry_smoke: server closed mid-binary-leg")
    decodable;
  Unix.close fd;
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
  let stats_b1_row =
    match Serve.Binary.input_frame ic with
    | Some body -> body
    | None -> failwith "telemetry_smoke: server closed before the b1 stats row"
  in
  Unix.close fd;
  Out_channel.with_open_text out_stats (fun o ->
      Out_channel.output_string o stats_json_row;
      Out_channel.output_char o '\n';
      Out_channel.output_string o stats_b1_row;
      Out_channel.output_char o '\n');
  (* Shut down before dumping: joining the reactor shard guarantees the
     last clocks (including both stats requests') are finalised. *)
  Serve.Server.shutdown server;
  Out_channel.with_open_text out_recorder
    (Serve.Telemetry.write_recorder ~reason:"telemetry_smoke");
  Printf.eprintf
    "telemetry_smoke: %d json rows, %d binary rows, %d recorded (%d pushed)\n"
    (List.length json_rows) (List.length decodable)
    (Serve.Telemetry.recorder_recorded ())
    (Serve.Telemetry.recorder_pushed ())
