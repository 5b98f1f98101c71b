(* Fits the Chebyshev table behind Numerics.Special.erfc from the
   incomplete-gamma oracle, and checks the committed table against it.

   The fitted function is  h(y) = ln(erfc z / t) + z^2  with
   t = 2 / (2 + z) and y = 2t - 1, which maps z in [0, inf) onto
   y in (-1, 1] and is smooth there (h tends to -ln(2 sqrt pi) as
   z -> inf).  Its coefficients are the discrete Chebyshev transform of
   h sampled at [nodes] Chebyshev points; the series is truncated to
   [terms] coefficients, where the dropped ones are below 1e-17.

     dune build test/oracle/erfc_fit.exe &&
       ./_build/default/test/oracle/erfc_fit.exe > lib/numerics/erfc_table.ml
     dune exec test/oracle/erfc_fit.exe -- --check

   (Build first: the redirection empties the table the build compiles.)

   The check (the @erfc-fit alias, part of @ci) fails when any committed
   coefficient differs from the refit by more than 1e-15: libm results
   differ by an ulp across hosts, so bit equality is not required. *)

let terms = 28
let nodes = 128
let pi = 4. *. atan 1.

let fit () =
  let h =
    Array.init nodes (fun k ->
        let theta = pi *. (float_of_int k +. 0.5) /. float_of_int nodes in
        (* t = (1 + cos theta) / 2, without the cancellation near -1. *)
        let t = cos (0.5 *. theta) ** 2. in
        let z = (2. /. t) -. 2. in
        Oracle.Gamma.log_erfc_scaled z -. log t)
  in
  Array.init terms (fun j ->
      let s = ref 0. in
      for k = 0 to nodes - 1 do
        let theta = pi *. (float_of_int k +. 0.5) /. float_of_int nodes in
        s := !s +. (h.(k) *. cos (float_of_int j *. theta))
      done;
      2. *. !s /. float_of_int nodes)

let print coef =
  print_string
    "(* Generated by test/oracle/erfc_fit.exe from the incomplete-gamma\n\
    \   oracle (test/oracle/gamma.ml).  Do not edit: regenerate with\n\
    \     dune build test/oracle/erfc_fit.exe &&\n\
    \       ./_build/default/test/oracle/erfc_fit.exe \\\n\
    \       > lib/numerics/erfc_table.ml\n\
    \   The @erfc-fit alias checks this table against a fresh fit. *)\n\n\
     let coefficients =\n  [|\n";
  Array.iter (fun c -> Printf.printf "    %.17g;\n" c) coef;
  print_string "  |]\n"

let check coef =
  let committed = Numerics.Erfc_table.coefficients in
  if Array.length committed <> Array.length coef then begin
    Printf.eprintf "erfc_fit: committed table has %d terms, the fit %d\n"
      (Array.length committed) (Array.length coef);
    exit 1
  end;
  let worst = ref 0. in
  Array.iteri
    (fun j c ->
      let d = abs_float (c -. committed.(j)) in
      if d > !worst then worst := d;
      if d > 1e-15 then
        Printf.eprintf "erfc_fit: c%d committed %.17g, refit %.17g (|d| = %.2g)\n"
          j committed.(j) c d)
    coef;
  if !worst > 1e-15 then exit 1;
  Printf.printf "erfc_fit: %d coefficients within %.2g of the refit\n"
    (Array.length coef) !worst

let () =
  let coef = fit () in
  match Sys.argv with
  | [| _ |] -> print coef
  | [| _; "--check" |] -> check coef
  | _ ->
    prerr_endline "usage: erfc_fit.exe [--check]";
    exit 2
