(* Gauss-Legendre nodes on [-1, 1] by Newton iteration on P_n, using the
   standard three-term recurrence; symmetric, so only half are solved. *)
let gl_table : (int, (float * float) array) Hashtbl.t = Hashtbl.create 8
let gl_mutex = Mutex.create ()

let compute_gl_nodes n =
  if n <= 0 then invalid_arg "Integrate.gauss_legendre_nodes: n must be > 0";
  let nodes = Array.make n (0., 0.) in
  let m = (n + 1) / 2 in
  let nf = float_of_int n in
  for i = 0 to m - 1 do
    (* Chebyshev-style initial guess for the i-th root. *)
    let x = ref (cos (Special.pi *. (float_of_int i +. 0.75) /. (nf +. 0.5))) in
    let pp = ref 0. in
    let continue = ref true in
    while !continue do
      (* Evaluate P_n(x) and P_{n-1}(x) by recurrence. *)
      let p0 = ref 1. and p1 = ref 0. in
      for j = 0 to n - 1 do
        let jf = float_of_int j in
        let p2 = !p1 in
        p1 := !p0;
        p0 := (((2. *. jf) +. 1.) *. !x *. !p1 -. (jf *. p2)) /. (jf +. 1.)
      done;
      (* Derivative via P'_n = n (x P_n - P_{n-1}) / (x^2 - 1). *)
      pp := nf *. ((!x *. !p0) -. !p1) /. ((!x *. !x) -. 1.);
      let dx = !p0 /. !pp in
      x := !x -. dx;
      if abs_float dx < 1e-15 then continue := false
    done;
    let w = 2. /. ((1. -. (!x *. !x)) *. !pp *. !pp) in
    nodes.(i) <- (-. !x, w);
    nodes.(n - 1 - i) <- (!x, w)
  done;
  nodes

let m_gl_hits = Obs.Metrics.counter "integrate.gl_cache.hits"
let m_gl_misses = Obs.Metrics.counter "integrate.gl_cache.misses"

(* Node tables are immutable once computed; the mutex only guards the
   table itself so concurrent quadratures (domain pool) stay safe.  A
   racing miss may compute the same nodes twice — harmless. *)
let gauss_legendre_nodes n =
  Mutex.lock gl_mutex;
  match Hashtbl.find_opt gl_table n with
  | Some nodes ->
    Mutex.unlock gl_mutex;
    Obs.Metrics.incr m_gl_hits;
    nodes
  | None ->
    Mutex.unlock gl_mutex;
    Obs.Metrics.incr m_gl_misses;
    let nodes = compute_gl_nodes n in
    Mutex.lock gl_mutex;
    Hashtbl.replace gl_table n nodes;
    Mutex.unlock gl_mutex;
    nodes

let gauss_legendre ?(n = 64) f ~a ~b =
  let nodes = gauss_legendre_nodes n in
  let c = 0.5 *. (b -. a) and mid = 0.5 *. (a +. b) in
  let sum = ref 0. in
  Array.iter (fun (x, w) -> sum := !sum +. (w *. f (mid +. (c *. x)))) nodes;
  c *. !sum
