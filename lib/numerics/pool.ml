(* Fixed-size domain pool with a hand-rolled work queue (stdlib Domain +
   Mutex + Condition; no external dependency).  One global pool is shared
   by every caller in the process: it is spawned lazily, grows to the
   largest jobs value ever requested, and is torn down at exit.

   Determinism contract: work is split into chunks *before* anything
   executes, each chunk writes its result into a slot indexed by its
   chunk number, and reductions fold the slots in chunk order.  The
   outcome therefore never depends on how many domains ran the chunks or
   in which order they finished — callers that additionally key their RNG
   streams by chunk index (see Rng.of_stream) obtain bit-identical
   results for any jobs count.

   Nested submissions are allowed (an experiment running in the pool may
   itself fan out a Monte-Carlo run): the submitting domain always helps
   execute its own job, so progress is guaranteed even when every worker
   is busy. *)

type job = {
  total : int;  (* number of chunks *)
  next : int Atomic.t;  (* next unclaimed chunk index *)
  unfinished : int Atomic.t;  (* chunks not yet fully executed *)
  run_chunk : int -> unit;  (* executes one chunk; may raise *)
  job_mutex : Mutex.t;  (* guards [failed] and the completion signal *)
  finished : Condition.t;
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
}

let pool_mutex = Mutex.create ()
let pool_cond = Condition.create ()
let pending : job list ref = ref []
let workers : unit Domain.t list ref = ref []
let shutting_down = ref false

(* --- metrics ------------------------------------------------------------ *)

let m_tasks = Obs.Metrics.counter "pool.tasks_submitted"
let m_chunks = Obs.Metrics.counter "pool.chunks_completed"
let m_helped = Obs.Metrics.counter "pool.caller_helped"
let m_queue_hwm = Obs.Metrics.gauge "pool.queue_depth_hwm"
let m_chunk_latency = Obs.Metrics.histogram "pool.chunk_latency_s"

type stats = {
  tasks_submitted : int;
  chunks_completed : int;
  caller_helped : int;
  queue_depth_hwm : int;
}

let stats () =
  {
    tasks_submitted = Obs.Metrics.counter_value m_tasks;
    chunks_completed = Obs.Metrics.counter_value m_chunks;
    caller_helped = Obs.Metrics.counter_value m_helped;
    queue_depth_hwm = int_of_float (Obs.Metrics.gauge_value m_queue_hwm);
  }

(* --- jobs setting ------------------------------------------------------- *)

let env_jobs () =
  match Sys.getenv_opt "HTLC_JOBS" with
  | None -> None
  | Some s -> (
    let s = String.trim s in
    if s = "" then None
    else
      match int_of_string_opt s with
      | Some n when n >= 1 -> Some n
      | Some n ->
        failwith
          (Printf.sprintf "HTLC_JOBS must be a positive integer, got %d" n)
      | None ->
        failwith
          (Printf.sprintf "HTLC_JOBS must be a positive integer, got %S" s))

let recommended () =
  match env_jobs () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

let global_jobs = Atomic.make 0 (* 0 = not yet resolved *)

let jobs () =
  let j = Atomic.get global_jobs in
  if j > 0 then j
  else begin
    (* Benign race: concurrent initialisers compute the same value. *)
    ignore (Atomic.compare_and_set global_jobs 0 (recommended ()));
    Atomic.get global_jobs
  end

let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: jobs must be >= 1";
  Atomic.set global_jobs n

(* --- execution ---------------------------------------------------------- *)

let record_failure job chunk exn bt =
  Mutex.lock job.job_mutex;
  (match job.failed with
  | Some (c, _, _) when c <= chunk -> ()
  | _ -> job.failed <- Some (chunk, exn, bt));
  Mutex.unlock job.job_mutex

(* Runs one claimed chunk and signals the submitter when it was the last
   one.  The atomic decrement publishes the chunk's writes (OCaml memory
   model: release on the atomic), so the submitter may read result slots
   after observing [unfinished = 0]. *)
let exec job chunk =
  (* Clock reads are gated on the metrics flag (0 sentinel = untimed) so
     the disabled path stays a single atomic load per chunk. *)
  let t0 = if Obs.Metrics.enabled () then Obs.Monotonic.now_int_ns () else 0 in
  (try job.run_chunk chunk
   with exn -> record_failure job chunk exn (Printexc.get_raw_backtrace ()));
  Obs.Metrics.incr m_chunks;
  if t0 <> 0 then
    Obs.Metrics.observe_ns m_chunk_latency (Obs.Monotonic.now_int_ns () - t0);
  if Atomic.fetch_and_add job.unfinished (-1) = 1 then begin
    Mutex.lock job.job_mutex;
    Condition.broadcast job.finished;
    Mutex.unlock job.job_mutex
  end

let claim job =
  let chunk = Atomic.fetch_and_add job.next 1 in
  if chunk < job.total then Some chunk else None

let rec worker_loop () =
  Mutex.lock pool_mutex;
  let find_claim () =
    List.find_map
      (fun j -> if Atomic.get j.next < j.total then claim j |> Option.map (fun c -> (j, c)) else None)
      !pending
  in
  let claimed = ref (find_claim ()) in
  while Option.is_none !claimed && not !shutting_down do
    Condition.wait pool_cond pool_mutex;
    claimed := find_claim ()
  done;
  Mutex.unlock pool_mutex;
  match !claimed with
  | None -> () (* shutting down and no claimable work left *)
  | Some (job, chunk) ->
    exec job chunk;
    worker_loop ()

(* Called with [pool_mutex] held. *)
let ensure_workers n =
  while List.length !workers < n do
    workers := Domain.spawn worker_loop :: !workers
  done

let () =
  at_exit (fun () ->
      Mutex.lock pool_mutex;
      shutting_down := true;
      Condition.broadcast pool_cond;
      Mutex.unlock pool_mutex;
      List.iter Domain.join !workers;
      workers := [])

let run_chunks ?jobs:jobs_opt ~chunks run_chunk =
  if chunks < 0 then invalid_arg "Pool.run_chunks: negative chunk count";
  let j =
    match jobs_opt with
    | Some j when j >= 1 -> j
    | Some _ -> invalid_arg "Pool.run_chunks: jobs must be >= 1"
    | None -> jobs ()
  in
  let j = min j chunks in
  Obs.Metrics.incr m_tasks;
  if j <= 1 then
    (* Sequential fast path: same chunk decomposition, zero pool traffic.
       Raises at the first failing chunk — the same (lowest-index) failure
       the parallel path reports. *)
    let timed = Obs.Metrics.enabled () in
    for chunk = 0 to chunks - 1 do
      let t0 = if timed then Obs.Monotonic.now_int_ns () else 0 in
      run_chunk chunk;
      Obs.Metrics.incr m_chunks;
      if t0 <> 0 then
        Obs.Metrics.observe_ns m_chunk_latency (Obs.Monotonic.now_int_ns () - t0)
    done
  else begin
    let job =
      {
        total = chunks;
        next = Atomic.make 0;
        unfinished = Atomic.make chunks;
        run_chunk;
        job_mutex = Mutex.create ();
        finished = Condition.create ();
        failed = None;
      }
    in
    Mutex.lock pool_mutex;
    ensure_workers (j - 1);
    pending := !pending @ [ job ];
    Obs.Metrics.max_gauge m_queue_hwm (float_of_int (List.length !pending));
    Condition.broadcast pool_cond;
    Mutex.unlock pool_mutex;
    (* The submitter helps until every chunk is claimed... *)
    let rec help () =
      match claim job with
      | Some chunk ->
        Obs.Metrics.incr m_helped;
        exec job chunk;
        help ()
      | None -> ()
    in
    help ();
    (* ...then waits out chunks still in flight on other domains. *)
    Mutex.lock job.job_mutex;
    while Atomic.get job.unfinished > 0 do
      Condition.wait job.finished job.job_mutex
    done;
    Mutex.unlock job.job_mutex;
    Mutex.lock pool_mutex;
    pending := List.filter (fun j' -> j' != job) !pending;
    Mutex.unlock pool_mutex;
    match job.failed with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  end

(* --- chunked combinators ------------------------------------------------ *)

let num_chunks ~chunk_size ~n =
  if chunk_size < 1 then invalid_arg "Pool: chunk_size must be >= 1";
  if n < 0 then invalid_arg "Pool: n must be >= 0";
  if n = 0 then 0 else ((n - 1) / chunk_size) + 1

let map_chunks ?jobs ~chunk_size ~n f =
  let k = num_chunks ~chunk_size ~n in
  let out = Array.make k None in
  run_chunks ?jobs ~chunks:k (fun chunk ->
      let lo = chunk * chunk_size in
      let hi = min n (lo + chunk_size) in
      out.(chunk) <- Some (f ~chunk ~lo ~hi));
  Array.map (function Some v -> v | None -> assert false) out

let parallel_for_reduce ?jobs ~chunk_size ~n ~init ~body ~combine =
  Array.fold_left combine init (map_chunks ?jobs ~chunk_size ~n body)

let map_array ?jobs f arr =
  map_chunks ?jobs ~chunk_size:1 ~n:(Array.length arr)
    (fun ~chunk ~lo:_ ~hi:_ -> f arr.(chunk))

let map_list ?jobs f l = Array.to_list (map_array ?jobs f (Array.of_list l))
