(* Reactor socket smoke: the CI proof that the event-loop transport
   serves both wire codecs correctly end-to-end.

   Drives the fixed serve_requests.txt script through a real
   Unix-domain-socket reactor server twice on one engine:

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

   Usage: reactor_smoke REQUESTS OUT_JSON OUT_BIN *)

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
  let requests_file, out_json, out_bin =
    match Sys.argv with
    | [| _; a; b; c |] -> (a, b, c)
    | _ ->
      prerr_endline "usage: reactor_smoke REQUESTS OUT_JSON OUT_BIN";
      exit 2
  in
  let lines =
    List.filter (fun l -> String.trim l <> "") (read_lines requests_file)
  in
  let mus = Numerics.Grid.linspace ~lo:(-0.01) ~hi:0.01 ~n:3
  and sigmas = Numerics.Grid.linspace ~lo:0.02 ~hi:0.16 ~n:3 in
  let engine = Serve.Engine.create ~mus ~sigmas () in
  let path = Printf.sprintf "/tmp/htlc-reactor-smoke-%d.sock" (Unix.getpid ()) in
  let server = Serve.Server.listen engine ~path () in
  (* --- JSON leg: one pipelined burst -------------------------------- *)
  let fd, ic, oc = connect path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  flush oc;
  let json_rows = List.map (fun _ -> input_line ic) lines in
  Unix.close fd;
  Out_channel.with_open_text out_json (fun o ->
      List.iter
        (fun r ->
          Out_channel.output_string o r;
          Out_channel.output_char o '\n')
        json_rows);
  (* --- binary leg: every decodable request, re-framed ---------------- *)
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
  let bin_rows =
    List.map
      (fun _ ->
        match Serve.Binary.input_frame ic with
        | Some body -> body
        | None -> failwith "reactor_smoke: server closed mid-binary-leg")
      decodable
  in
  Unix.close fd;
  Out_channel.with_open_text out_bin (fun o ->
      List.iter
        (fun r ->
          Out_channel.output_string o r;
          Out_channel.output_char o '\n')
        bin_rows);
  Serve.Server.shutdown server;
  Printf.eprintf "reactor_smoke: %d json rows, %d binary rows\n"
    (List.length json_rows) (List.length bin_rows)
