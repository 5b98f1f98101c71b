type block = { height : int; time : float; events : string list }

let blocks chain =
  let receipts = Chain.receipts chain in
  let rec group height acc current current_time = function
    | [] ->
      List.rev
        (if current = [] then acc
         else { height; time = current_time; events = List.rev current } :: acc)
    | (r : Chain.receipt) :: rest ->
      let line =
        Printf.sprintf "%s -> %s" (Chain.describe r)
          (match r.Chain.result with Ok () -> "ok" | Error e -> "failed: " ^ e)
      in
      if current = [] || r.Chain.time = current_time then
        group height acc (line :: current) r.Chain.time rest
      else
        group (height + 1)
          ({ height; time = current_time; events = List.rev current } :: acc)
          [ line ] r.Chain.time rest
  in
  group 0 [] [] nan receipts

let balances chain =
  let all = Chain.accounts chain in
  let nonzero = List.filter (fun (_, v) -> abs_float v > 1e-12) all in
  List.sort (fun (_, a) (_, b) -> compare b a) nonzero

let render ?max_blocks chain =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "chain %s (token %s, tau %g h, mempool delay %g h)\n"
       (Chain.name chain) (Chain.token chain) (Chain.tau chain)
       (Chain.mempool_delay chain));
  let all = blocks chain in
  let shown =
    match max_blocks with
    | None -> all
    | Some n ->
      let len = List.length all in
      if len <= n then all else List.filteri (fun i _ -> i >= len - n) all
  in
  List.iter
    (fun b ->
      Buffer.add_string buf (Printf.sprintf "block %d @ %g h\n" b.height b.time);
      List.iter
        (fun e -> Buffer.add_string buf (Printf.sprintf "  %s\n" e))
        b.events)
    shown;
  Buffer.add_string buf "balances:\n";
  List.iter
    (fun (account, v) ->
      Buffer.add_string buf (Printf.sprintf "  %-24s %g\n" account v))
    (balances chain);
  Buffer.contents buf
