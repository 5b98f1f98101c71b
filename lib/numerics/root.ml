(* Brent's method, following the classic Brent (1973) formulation;
   [fa] and [fb] are f at the bracket ends. *)
let brent_with ~tol ~max_iter f a fa b fb =
  if fa = 0. then a
  else if fb = 0. then b
  else if fa *. fb > 0. then
    invalid_arg "Root.brent: endpoints do not bracket a root"
  else begin
    let a = ref a and b = ref b and fa = ref fa and fb = ref fb in
    if abs_float !fa < abs_float !fb then begin
      let t = !a in a := !b; b := t;
      let t = !fa in fa := !fb; fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) in
    let mflag = ref true in
    let result = ref nan in
    (try
       for _ = 1 to max_iter do
         if !fb = 0. || abs_float (!b -. !a) < tol then begin
           result := !b;
           raise Exit
         end;
         let s =
           if !fa <> !fc && !fb <> !fc then
             (* Inverse quadratic interpolation. *)
             (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
             +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
             +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
           else
             (* Secant. *)
             !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
         in
         let lo = ((3. *. !a) +. !b) /. 4. and hi = !b in
         let lo, hi = if lo <= hi then (lo, hi) else (hi, lo) in
         let use_bisection =
           s < lo || s > hi
           || (!mflag && abs_float (s -. !b) >= abs_float (!b -. !c) /. 2.)
           || ((not !mflag) && abs_float (s -. !b) >= abs_float (!c -. !d) /. 2.)
           || (!mflag && abs_float (!b -. !c) < tol)
           || ((not !mflag) && abs_float (!c -. !d) < tol)
         in
         let s = if use_bisection then 0.5 *. (!a +. !b) else s in
         mflag := use_bisection;
         let fs = f s in
         d := !c;
         c := !b;
         fc := !fb;
         if !fa *. fs < 0. then begin b := s; fb := fs end
         else begin a := s; fa := fs end;
         if abs_float !fa < abs_float !fb then begin
           let t = !a in a := !b; b := t;
           let t = !fa in fa := !fb; fb := t
         end
       done;
       result := !b
     with Exit -> ());
    !result
  end

let brent ?(tol = 1e-13) ?(max_iter = 200) f ~a ~b =
  brent_with ~tol ~max_iter f a (f a) b (f b)

(* Certified adaptive log scan.  In u = ln x the domain is cut into
   [coarse] cells.  A cell whose end values share a sign is root-free
   when they are large next to how far f can bend inside it: with K a
   bound on |f''| / 2 taken from the second divided differences of the
   samples around the cell, f stays within K w^2 / 4 of the chord over
   a cell of width w, so the cell is certified when
   min(|fa|, |fb|) > safety * K w^2 / 4.  A cell whose ends differ in
   sign holds exactly one root when f is monotone on it, certified when
   |fb - fa| > 2 safety K w^2 (the slope cannot change sign).  Any
   other cell is halved, the midpoint adding a finer divided difference
   to K, down to [max_depth] halvings; an uncertified cell at that width
   is classified by its end signs alone, as a dense scan at that width
   would.  Brent then refines each bracket to a tolerance relative to
   its scale, so the roots of f (lambda x) are lambda times those of f.
   No state outlives a call. *)
let coarse = 48
let max_depth = 4
let safety = 4.

let roots_log f ~a ~b =
  if a <= 0. || b <= a then invalid_arg "Root.roots_log: requires 0 < a < b";
  let la = log a and lb = log b in
  let h = (lb -. la) /. float_of_int coarse in
  let us =
    Array.init (coarse + 1) (fun i ->
        if i = coarse then lb else la +. (h *. float_of_int i))
  in
  let xs = Array.map exp us in
  xs.(0) <- a;
  xs.(coarse) <- b;
  let fs = Array.map f xs in
  (* |f''| / 2 from the divided difference centred on sample i. *)
  let dd2 i =
    abs_float (fs.(i - 1) -. (2. *. fs.(i)) +. fs.(i + 1)) /. (2. *. h *. h)
  in
  let roots = ref [] in
  let refine xa fa xb fb =
    let tol = 1e-13 *. Float.max (abs_float xa) (abs_float xb) in
    roots := brent_with ~tol ~max_iter:200 f xa fa xb fb :: !roots
  in
  let rec examine ua xa fa ub xb fb k depth =
    if fa = 0. then roots := xa :: !roots
    else begin
      let w = ub -. ua in
      let bend = safety *. k *. w *. w in
      let split () =
        let um = 0.5 *. (ua +. ub) in
        let xm = exp um in
        let fm = f xm in
        let k =
          Float.max k
            (abs_float (fa -. (2. *. fm) +. fb) /. (0.5 *. w *. w))
        in
        examine ua xa fa um xm fm k (depth + 1);
        examine um xm fm ub xb fb k (depth + 1)
      in
      if fa *. fb < 0. then begin
        if depth >= max_depth || abs_float (fb -. fa) > 2. *. bend then
          refine xa fa xb fb
        else split ()
      end
      else if fb <> 0.
              && depth < max_depth
              && Float.min (abs_float fa) (abs_float fb) <= 0.25 *. bend
      then split ()
    end
  in
  for i = 0 to coarse - 1 do
    let k =
      Float.max
        (if i >= 1 then dd2 i else 0.)
        (if i + 1 <= coarse - 1 then dd2 (i + 1) else 0.)
    in
    examine us.(i) xs.(i) fs.(i) us.(i + 1) xs.(i + 1) fs.(i + 1) k 0
  done;
  if fs.(coarse) = 0. then roots := b :: !roots;
  List.rev !roots
