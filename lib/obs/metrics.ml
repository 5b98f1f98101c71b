(* Global metrics registry: named counters, gauges, and log-linear
   duration histograms, safe under Numerics.Pool fan-out.

   Counters shard their cells by domain id so concurrent increments from
   pool workers never contend on one atomic; a read sums the shards.
   Histograms give each recording domain its own plain-int shard (see
   below).  Registration is mutex-guarded and idempotent: asking for an
   existing name returns the existing metric, so modules can register at
   load time without coordination.

   Probes honour a global [enabled] flag: when disabled every update is
   a single atomic load and branch (a few ns), which is the contract the
   bench baseline's < 5% overhead budget relies on. *)

let shards = 8 (* power of two; domain ids hash into these cells *)

let shard () = (Domain.self () :> int) land (shards - 1)
[@@lint.allow nondet_domain
    "shard selection only routes an increment to one of the striped \
     cells; snapshots sum every cell, so which domain bumped which \
     cell is unobservable in any exported value"]

type counter = { cells : int Atomic.t array }
type gauge = { g_cell : float Atomic.t }

(* --- histograms -----------------------------------------------------------

   Durations are recorded as integer nanoseconds into log-linear
   buckets: each power of two [2^e, 2^(e+1)) ns, e in [0, max_exp), is
   cut into [sub] sub-buckets of width 2^(e - sub_bits).  Bucket 0 holds
   zero durations; the top bucket everything from 2^max_exp ns (~4.9 h)
   up.  The index is read off the IEEE-754 bits: exponent and top
   [sub_bits] mantissa bits together count sub-buckets from 1 ns. *)

let sub_bits = 5
let sub = 1 lsl sub_bits
let max_exp = 44
let n_buckets = (max_exp * sub) + 2

let bucket_index ns =
  if ns <= 0 then 0
  else
    let bits = Int64.bits_of_float (float_of_int ns) in
    let i = Int64.to_int (Int64.shift_right_logical bits (52 - sub_bits)) - (1023 * sub) + 1 in
    if i >= n_buckets then n_buckets - 1 else i

(* Lower edge of bucket [i] in ns; [lo (i + 1)] is its upper edge (for
   the top bucket, a nominal one). *)
let lo i =
  if i = 0 then 0.
  else Float.ldexp (float_of_int (sub + ((i - 1) mod sub))) (((i - 1) / sub) - sub_bits)

let relative_error = Float.ldexp 1. (-(sub_bits + 1))

(* A bucket's estimate in seconds: the midpoint of its edges, within
   [relative_error] of any duration the bucket holds. *)
let estimate_s i =
  if i = 0 then 0.
  else if i = n_buckets - 1 then lo i /. 1e9
  else (lo i +. lo (i + 1)) /. 2e9

(* A shard is one domain's plain-int bucket counts, then its sample
   count [slot_n] and nanosecond sum.  Only the domain holding it writes
   it, so a record is three plain stores: no atomic read-modify-write,
   no allocation, no lost update.  A domain claims a shard on its first
   record — one an exited domain left on the free list if there is one,
   so storage stays bounded by the peak number of recording domains —
   and [Domain.at_exit] hands it back, counts intact.  Readers sum the
   shards; a racing record may be missed by one read, never torn. *)
let slot_n = n_buckets

type histogram = {
  all : int array list Atomic.t; (* every shard ever claimed *)
  mine : int array Domain.DLS.key; (* this domain's, claimed on first use *)
  (* The trailing window, reader side only, under [win_lock]: the view
     is the current counts minus [older]; a re-base moves [newer] into
     [older] and the current counts into [newer], each base with the
     time it was taken.  [||] stands for the all-zero counts of
     registration time, so a histogram never read windowed allocates
     no bases. *)
  win_lock : Mutex.t;
  mutable older : int array;
  mutable older_ns : int; (* when [older] was taken: the window's start *)
  mutable newer : int array;
  mutable newer_ns : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()
let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let atomic_array n = Array.init n (fun _ -> Atomic.make 0)

let register name make unwrap kind =
  Mutex.lock registry_mutex;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
      let m = make () in
      Hashtbl.replace registry name m;
      m
  in
  Mutex.unlock registry_mutex;
  match unwrap m with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %S is already registered and is not a %s"
         name kind)

let counter name =
  register name
    (fun () -> Counter { cells = atomic_array shards })
    (function Counter c -> Some c | _ -> None)
    "counter"

let gauge name =
  register name
    (fun () -> Gauge { g_cell = Atomic.make 0. })
    (function Gauge g -> Some g | _ -> None)
    "gauge"

let rec push cell x =
  let l = Atomic.get cell in
  if not (Atomic.compare_and_set cell l (x :: l)) then push cell x

let rec pop cell =
  match Atomic.get cell with
  | [] -> None
  | x :: rest as l -> if Atomic.compare_and_set cell l rest then Some x else pop cell

let histogram name =
  register name
    (fun () ->
      let all = Atomic.make [] and free = Atomic.make [] in
      let claim () =
        let s =
          match pop free with
          | Some s -> s
          | None ->
            let s = Array.make (n_buckets + 2) 0 in
            push all s;
            s
        in
        Domain.at_exit (fun () -> push free s);
        s
      in
      let now_ns = Monotonic.now_int_ns () in
      Histogram
        { all; mine = Domain.DLS.new_key claim; win_lock = Mutex.create ();
          older = [||]; older_ns = now_ns; newer = [||]; newer_ns = now_ns })
    (function Histogram h -> Some h | _ -> None)
    "histogram"

(* --- updates ------------------------------------------------------------ *)

let incr c = if enabled () then Atomic.incr c.cells.(shard ())

let add c n =
  if enabled () && n <> 0 then ignore (Atomic.fetch_and_add c.cells.(shard ()) n)

let set_gauge g v = if enabled () then Atomic.set g.g_cell v

let rec max_gauge g v =
  if enabled () then begin
    let seen = Atomic.get g.g_cell in
    if v > seen && not (Atomic.compare_and_set g.g_cell seen v) then
      max_gauge g v
  end

let observe_ns h ns =
  if enabled () then begin
    let s = Domain.DLS.get h.mine in
    let i = bucket_index ns in
    Array.unsafe_set s i (Array.unsafe_get s i + 1);
    s.(slot_n) <- s.(slot_n) + 1;
    s.(slot_n + 1) <- s.(slot_n + 1) + ns
  end

(* --- reads -------------------------------------------------------------- *)

let counter_value c = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.cells
let gauge_value g = Atomic.get g.g_cell
let reset_counter c = Array.iter (fun a -> Atomic.set a 0) c.cells

type hist_snapshot = {
  count : int;
  sum : float;
  buckets : (float * int) list; (* (upper bound, count), nonzero only *)
}

let merged shards i = List.fold_left (fun acc s -> acc + s.(i)) 0 shards
let sum_s shards = float_of_int (merged shards (slot_n + 1)) /. 1e9

let hist_value (h : histogram) =
  let shards = Atomic.get h.all in
  let count = ref 0 and buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    let n = merged shards i in
    count := !count + n;
    if n > 0 then buckets := (lo (i + 1) /. 1e9, n) :: !buckets
  done;
  { count = !count; sum = sum_s shards; buckets = !buckets }

let hist_shards h = List.length (Atomic.get h.all)

type hist_view = {
  v_count : int;
  v_sum : float;
  v_window : int;
  v_window_s : float;
  v_quantiles : float array;
}

(* Under [win_lock]: [newer] into [older], the current counts (buckets
   and [slot_n]) into [newer]. *)
let shift h shards ~now_ns =
  let spare = if h.older == [||] then Array.make (n_buckets + 1) 0 else h.older in
  h.older <- h.newer;
  h.older_ns <- h.newer_ns;
  for i = 0 to n_buckets do
    spare.(i) <- merged shards i
  done;
  h.newer <- spare;
  h.newer_ns <- now_ns

let base a i = if a == [||] then 0 else a.(i)

(* Quantile [q] of a window of [n] samples is the bucket holding its
   [ceil (q n)]-th smallest sample (nearest rank).  The first read with
   samples takes the first real base. *)
let hist_view h ~now_ns qs =
  Mutex.lock h.win_lock;
  let shards = Atomic.get h.all in
  let count = merged shards slot_n in
  if count > 0 && (h.newer == [||] || now_ns - h.newer_ns >= 10_000_000_000)
  then shift h shards ~now_ns;
  let n = count - base h.older slot_n in
  let nq = Array.length qs in
  (* Each rank once, not once per bucket walked. *)
  let ranks =
    Array.map (fun q -> max 1 (int_of_float (Float.ceil (q *. float_of_int n)))) qs
  in
  let out = Array.make nq nan in
  let k = ref 0 and seen = ref 0 and i = ref 0 and last = ref 0 in
  while n > 0 && !k < nq && !i < n_buckets do
    let c = merged shards !i - base h.older !i in
    if c > 0 then last := !i;
    seen := !seen + c;
    while !k < nq && !seen >= ranks.(!k) do
      out.(!k) <- estimate_s !i;
      k := !k + 1
    done;
    i := !i + 1
  done;
  (* A record racing this read may have bumped [slot_n] before its
     bucket became visible here, leaving the top ranks unreached. *)
  if n > 0 then Array.fill out !k (nq - !k) (estimate_s !last);
  let window_s = float_of_int (now_ns - h.older_ns) /. 1e9 in
  Mutex.unlock h.win_lock;
  { v_count = count; v_sum = sum_s shards; v_window = n; v_window_s = window_s;
    v_quantiles = out }

(* Two shifts leave [older] at the current counts: an empty window.
   With nothing recorded yet the counts are all zero already. *)
let rebase h ~now_ns =
  Mutex.lock h.win_lock;
  let shards = Atomic.get h.all in
  if shards == [] then begin
    h.older_ns <- now_ns;
    h.newer_ns <- now_ns
  end
  else (shift h shards ~now_ns; shift h shards ~now_ns);
  Mutex.unlock h.win_lock

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot () =
  Mutex.lock registry_mutex;
  let metrics = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock registry_mutex;
  let cs = ref [] and gs = ref [] and hs = ref [] in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> cs := (name, counter_value c) :: !cs
      | Gauge g -> gs := (name, gauge_value g) :: !gs
      | Histogram h -> hs := (name, hist_value h) :: !hs)
    metrics;
  {
    counters = List.sort by_name !cs;
    gauges = List.sort by_name !gs;
    histograms = List.sort by_name !hs;
  }
[@@lint.allow hashtbl_order
  "the registry fold runs under registry_mutex and every section is \
   sorted by name before it escapes this function"]

(* --- exporters ---------------------------------------------------------- *)

let schema = "htlc-obs/v1"

let to_json s =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":%s,\"type\":\"metrics\"" (Json.str schema));
  let obj key render entries =
    Buffer.add_string b (Printf.sprintf ",%s:{" (Json.str key));
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Json.str name);
        Buffer.add_char b ':';
        Buffer.add_string b (render v))
      entries;
    Buffer.add_char b '}'
  in
  obj "counters" Json.int s.counters;
  obj "gauges" Json.num s.gauges;
  obj "histograms"
    (fun (h : hist_snapshot) ->
      let buckets =
        String.concat ","
          (List.map
             (fun (le, n) ->
               Printf.sprintf "{\"le\":%s,\"n\":%d}" (Json.num le) n)
             h.buckets)
      in
      Printf.sprintf "{\"count\":%d,\"sum\":%s,\"buckets\":[%s]}" h.count
        (Json.num h.sum) buckets)
    s.histograms;
  Buffer.add_char b '}';
  Buffer.contents b

(* Prometheus text exposition: dots become underscores, histogram
   buckets are cumulative with a trailing +Inf. *)
let prom_name name =
  String.map (fun c -> if c = '.' || c = '-' then '_' else c) name

let top_le = lo n_buckets /. 1e9

let to_prometheus s =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    s.counters;
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (Json.num v)))
    s.gauges;
  List.iter
    (fun (name, (h : hist_snapshot)) ->
      let n = prom_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      List.iter
        (fun (le, count) ->
          cum := !cum + count;
          (* The top bucket is a clamp: every value beyond its bound is
             recorded there, so exporting it under a finite [le] would
             claim observations it cannot vouch for.  Fold it into the
             +Inf terminal instead (the cumulative count already
             includes it), keeping le-monotonicity and
             _bucket{+Inf} = _count exact per the exposition spec. *)
          if le < top_le then
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (Json.num le) !cum))
        h.buckets;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n h.count);
      Buffer.add_string b (Printf.sprintf "%s_sum %s\n" n (Json.num h.sum));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n h.count))
    s.histograms;
  Buffer.contents b
