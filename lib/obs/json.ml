(* Minimal JSON emission helpers shared by the exporters.  Emission
   only — parsing lives with the validators, which must not trust the
   emitter's own code to check itself.  [str] and [num] build every
   serve key and response, so neither goes through [Printf]. *)

(* Bytes [c] takes inside a JSON string literal: [str], [str_length]
   and [blit_str] share this one escaping rule. *)
let escaped_width c =
  match c with
  | '"' | '\\' | '\n' | '\t' | '\r' -> 2
  | c when Char.code c < 0x20 -> 6
  | _ -> 1

let str_length s =
  let n = ref 2 in
  for i = 0 to String.length s - 1 do
    n := !n + escaped_width (String.unsafe_get s i)
  done;
  !n

let hex = "0123456789abcdef"

let blit_str s b off =
  Bytes.unsafe_set b off '"';
  let o = ref (off + 1) in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    match escaped_width c with
    | 1 ->
      Bytes.unsafe_set b !o c;
      o := !o + 1
    | 2 ->
      Bytes.unsafe_set b !o '\\';
      Bytes.unsafe_set b (!o + 1)
        (match c with '\n' -> 'n' | '\t' -> 't' | '\r' -> 'r' | c -> c);
      o := !o + 2
    | _ ->
      (* Backslash, u, then four lowercase hex digits; every such byte
         is below 0x20. *)
      Bytes.blit_string "\\u00" 0 b !o 4;
      Bytes.unsafe_set b (!o + 4) hex.[Char.code c lsr 4];
      Bytes.unsafe_set b (!o + 5) hex.[Char.code c land 15];
      o := !o + 6
  done;
  Bytes.unsafe_set b !o '"';
  !o + 1

let str s =
  let b = Bytes.create (str_length s) in
  ignore (blit_str s b 0);
  Bytes.unsafe_to_string b

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
