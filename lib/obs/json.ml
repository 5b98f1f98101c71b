(* Minimal JSON emission helpers shared by the exporters.  Emission
   only — parsing lives with the validators, which must not trust the
   emitter's own code to check itself.  [str] and [num] build every
   serve key and response, so neither goes through [Printf]. *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let str s =
  if not (String.exists needs_escape s) then String.concat "" [ "\""; s; "\"" ]
  else begin
    let b = Buffer.create (String.length s + 8) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end

(* The C conversion that [Printf]'s "%.17g", "%.0f" and "%g" end in. *)
external format_float : string -> float -> string = "caml_format_float"

let g x = format_float "%g" x

(* Floats print with enough digits to round-trip; non-finite values have
   no JSON representation and become null.  Integral values below 1e15
   print as "%.0f" would. *)
let num x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    if Float.sign_bit x && x = 0. then "-0" else string_of_int (int_of_float x)
  else format_float "%.17g" x

let int n = string_of_int n
