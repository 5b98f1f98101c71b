let parse contents =
  let lines = String.split_on_char '\n' contents in
  let rec go lineno times values = function
    | [] -> Ok (List.rev times, List.rev values)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then
        go (lineno + 1) times values rest
      else begin
        match String.split_on_char ',' trimmed with
        | [ t; v ] -> (
          match (float_of_string_opt (String.trim t),
                 float_of_string_opt (String.trim v)) with
          | Some t, Some v -> go (lineno + 1) (t :: times) (v :: values) rest
          | None, _ when lineno = 1 && times = [] ->
            (* Header row. *)
            go (lineno + 1) times values rest
          | _ -> Error (Printf.sprintf "line %d: not numeric: %s" lineno trimmed))
        | _ -> Error (Printf.sprintf "line %d: expected 2 fields: %s" lineno trimmed)
      end
  in
  match go 1 [] [] lines with
  | Error _ as e -> e
  | Ok (times, values) ->
    if times = [] then Error "no data rows"
    else begin
      try
        Ok
          (Stochastic.Path.create ~times:(Array.of_list times)
             ~values:(Array.of_list values))
      with Invalid_argument msg -> Error msg
    end

let load filename =
  match In_channel.with_open_text filename In_channel.input_all with
  | contents -> parse contents
  | exception Sys_error msg -> Error msg
