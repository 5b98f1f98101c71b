(* The whole generator is one 40-byte buffer: the four xoshiro256++
   words at byte offsets 0, 8, 16 and 24, and at 32 the bits of the
   second deviate of the last polar pair, or [no_deviate] when none is
   cached.  The unboxed primitives read and write the words in place,
   so a draw allocates nothing beyond its boxed result.  The layout
   (and its native byte order) never leaves this module. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let cached = 32

(* A NaN pattern: a polar deviate is always finite, so it can never
   collide with a cached value. *)
let no_deviate = 0x7FF8_0000_0000_0001L

(* splitmix64's state increment. *)
let golden_gamma = 0x9E3779B97F4A7C15L

(* The splitmix64 finaliser alone: a strong 64-bit mixing function. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* A fresh generator, seeded the way xoshiro's authors recommend: its
   words are the first four splitmix64 outputs from [key], in order, and
   no deviate is cached.  splitmix64's i-th output is [mix64] of its
   state [key + i * golden_gamma] (mod 2^64), so each word is computed
   from [i] directly and no state is boxed. *)
let expand key =
  let t = Bytes.create 40 in
  for i = 1 to 4 do
    set64 t (8 * (i - 1))
      (mix64 (Int64.add key (Int64.mul (Int64.of_int i) golden_gamma)))
  done;
  set64 t cached no_deviate;
  t

let create ?(seed = 0x5eed) () = expand (Int64.of_int seed)

let of_stream ?(seed = 0x5eed) ~stream () =
  if stream < 0 then invalid_arg "Rng.of_stream: stream must be >= 0";
  (* Hash (seed, stream) into one well-separated splitmix64 state, then
     expand it into xoshiro state exactly as [create] does.  Adjacent
     streams land in unrelated regions of the seeding sequence, giving
     each parallel chunk a statistically independent generator that is a
     pure function of (seed, stream) — the basis of the jobs-invariant
     Monte-Carlo contract. *)
  expand
    (mix64
       (Int64.logxor
          (mix64 (Int64.of_int seed))
          (Int64.mul (Int64.of_int stream) golden_gamma)))

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++, inlined into every draw so its words stay unboxed. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 in
  let s2 = get64 t 16 and s3 = get64 t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

let bits64 t = next t

(* Top 53 bits -> float in [0, 1). *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

let uniform t = unit_float t

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: requires n > 0";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let limit = Int64.sub (Int64.sub Int64.max_int n64) Int64.one in
  let rec draw () =
    let x = Int64.shift_right_logical (next t) 1 in
    (* x uniform in [0, 2^63) *)
    let r = Int64.rem x n64 in
    if Int64.sub x r > limit then draw () else Int64.to_int r
  in
  draw ()

(* Marsaglia's polar method: returns the first deviate of an accepted
   pair and caches the second. *)
let rec polar t =
  let u = (2. *. unit_float t) -. 1. in
  let v = (2. *. unit_float t) -. 1. in
  let s = (u *. u) +. (v *. v) in
  if s >= 1. || s = 0. then polar t
  else begin
    let m = sqrt (-2. *. log s /. s) in
    set64 t cached (Int64.bits_of_float (v *. m));
    u *. m
  end

let normal t =
  let z = get64 t cached in
  if Int64.equal z no_deviate then polar t
  else begin
    set64 t cached no_deviate;
    Int64.float_of_bits z
  end

let gaussian t ~mean ~stddev = mean +. (stddev *. normal t)

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: requires rate > 0";
  -.log (1. -. unit_float t) /. rate

let lognormal t ~mu ~sigma = exp (mu +. (sigma *. normal t))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
