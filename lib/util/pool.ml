(* Fixed-size domain pool with chunked, deterministic map/iter.

   Execution model: a batch of [n] cells is cut into at most [jobs * chunks_per_job]
   index ranges.  Executors — the calling domain plus any idle workers — claim
   chunks from an atomic counter and write results back by index.  The caller
   always executes chunks itself until the counter is exhausted and only then
   blocks on the batch latch, so a batch completes even if every worker is
   busy (or the pool has none) — this is what makes nested maps safe. *)

let chunks_per_job = 4

(* --- the process-wide parallelism default --- *)

let env_jobs () =
  match Sys.getenv_opt "FASTSC_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> Some j
    | _ -> None)

let override = Atomic.make None

let default_jobs () =
  match Atomic.get override with
  | Some j -> j
  | None -> (
    match env_jobs () with
    | Some j -> j
    | None -> max 1 (Domain.recommended_domain_count () - 1))

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Atomic.set override (Some j)

(* --- the pool proper --- *)

type t = {
  pool_jobs : int;
  mutex : Mutex.t;
  wake : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.pool_jobs

let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stop do
      Condition.wait t.wake t.mutex
    done;
    if t.stop && Queue.is_empty t.queue then Mutex.unlock t.mutex
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      (* a raising job must not kill the worker: batch jobs capture their own
         failures (see run_batch), so anything escaping here is a directly
         [submit]ted job whose error belongs to that job alone — the pool
         keeps serving, and shutdown's Domain.join never re-raises *)
      (try job () with _ -> ());
      loop ()
    end
  in
  loop ()

let create ?jobs () =
  let pool_jobs = match jobs with Some j -> j | None -> default_jobs () in
  if pool_jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      pool_jobs;
      mutex = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
    }
  in
  t.workers <- List.init (pool_jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let submit t job =
  Mutex.lock t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: batch submitted to a pool after shutdown"
  end;
  Queue.push job t.queue;
  Condition.signal t.wake;
  Mutex.unlock t.mutex

(* The shared global pool, (re)created lazily so `set_default_jobs` and
   FASTSC_JOBS take effect on next use.  Guarded by its own mutex. *)

let global_mutex = Mutex.create ()

let global : t option ref = ref None

let exit_hook_installed = ref false

let with_global_pool k =
  Mutex.lock global_mutex;
  let want = default_jobs () in
  let pool =
    match !global with
    | Some p when p.pool_jobs = want -> p
    | prev ->
      (match prev with Some p -> shutdown p | None -> ());
      let p = create ~jobs:want () in
      global := Some p;
      if not !exit_hook_installed then begin
        exit_hook_installed := true;
        at_exit (fun () ->
            Mutex.lock global_mutex;
            let p = !global in
            global := None;
            Mutex.unlock global_mutex;
            Option.iter shutdown p)
      end;
      p
  in
  Mutex.unlock global_mutex;
  k pool

(* --- chunked batch execution --- *)

type batch = {
  b_mutex : Mutex.t;
  b_done : Condition.t;
  mutable remaining : int;  (* chunks not yet finished *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
}

(* Run [work i] for every [i] in [0, n); [width] executors in total. *)
let run_batch ~width ~submit_helper n work =
  if n > 0 then begin
    if width <= 1 || n = 1 then
      for i = 0 to n - 1 do
        work i
      done
    else begin
      let n_chunks = min n (width * chunks_per_job) in
      let next = Atomic.make 0 in
      let failed = Atomic.make false in
      let batch =
        { b_mutex = Mutex.create (); b_done = Condition.create (); remaining = n_chunks; failure = None }
      in
      let chunk_bounds c = (c * n / n_chunks, (c + 1) * n / n_chunks) in
      let record_failure exn bt =
        Atomic.set failed true;
        Mutex.lock batch.b_mutex;
        if batch.failure = None then batch.failure <- Some (exn, bt);
        Mutex.unlock batch.b_mutex
      in
      let finish_chunk () =
        Mutex.lock batch.b_mutex;
        batch.remaining <- batch.remaining - 1;
        if batch.remaining = 0 then Condition.broadcast batch.b_done;
        Mutex.unlock batch.b_mutex
      in
      let rec execute () =
        let c = Atomic.fetch_and_add next 1 in
        if c < n_chunks then begin
          (* after a failure remaining chunks are claimed but skipped, so the
             latch still drains and the caller can re-raise promptly *)
          if not (Atomic.get failed) then begin
            let lo, hi = chunk_bounds c in
            try
              for i = lo to hi - 1 do
                work i
              done
            with exn -> record_failure exn (Printexc.get_raw_backtrace ())
          end;
          finish_chunk ();
          execute ()
        end
      in
      for _ = 1 to width - 1 do
        submit_helper execute
      done;
      execute ();
      Mutex.lock batch.b_mutex;
      while batch.remaining > 0 do
        Condition.wait batch.b_done batch.b_mutex
      done;
      let failure = batch.failure in
      Mutex.unlock batch.b_mutex;
      match failure with
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
      | None -> ()
    end
  end

let run ?pool ?jobs n work =
  match (pool, jobs) with
  | _, Some 1 -> run_batch ~width:1 ~submit_helper:(fun _ -> ()) n work
  | Some p, _ ->
    let width = match jobs with Some j -> j | None -> p.pool_jobs in
    run_batch ~width ~submit_helper:(submit p) n work
  | None, Some j when j >= 2 ->
    (* explicit jobs without a pool: ephemeral helper domains for this batch *)
    let helpers = ref [] in
    let spawn job = helpers := Domain.spawn job :: !helpers in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join !helpers)
      (fun () -> run_batch ~width:j ~submit_helper:spawn n work)
  | None, Some j ->
    if j < 1 then invalid_arg "Pool: jobs must be >= 1";
    run_batch ~width:1 ~submit_helper:(fun _ -> ()) n work
  | None, None ->
    if default_jobs () = 1 then run_batch ~width:1 ~submit_helper:(fun _ -> ()) n work
    else
      with_global_pool (fun p -> run_batch ~width:p.pool_jobs ~submit_helper:(submit p) n work)

(* --- deterministic range sharding --- *)

(* Seeded fault for the verification harness (docs/DESIGN.md §11): interior
   shard starts shifted up by one, so one element per boundary is skipped. *)
let fault_shard = Fault.enabled "shard-boundary-off-by-one"

let ranges ?(align = 1) ~jobs n =
  if align < 1 then invalid_arg "Pool.ranges: align must be >= 1";
  if jobs < 1 then invalid_arg "Pool.ranges: jobs must be >= 1";
  if n <= 0 then [||]
  else begin
    (* Boundaries are a pure function of (n, jobs, align): cut the index
       space into align-sized blocks and spread whole blocks evenly over at
       most [jobs] shards.  Execution never feeds back into the cut, which
       is what lets range-sharded kernels promise identical results at any
       actual parallelism. *)
    let blocks = (n + align - 1) / align in
    let w = min jobs blocks in
    let skew = if fault_shard then 1 else 0 in
    let bound i = if i = w then n else min n (i * blocks / w * align) in
    Array.init w (fun i ->
        let lo = bound i and hi = bound (i + 1) in
        ((if i > 0 then min hi (lo + skew) else lo), hi))
  end

let run_ranges ?pool ?jobs ?align n f =
  (* The *requested* width fixes the shard boundaries; the pool's actual
     size only caps how many executors run them.  A bit-identity test can
     therefore ask for [~jobs:4] shards on a serial pool and still exercise
     exactly the boundaries a 4-domain run would use. *)
  let requested =
    match (jobs, pool) with
    | Some j, _ ->
      if j < 1 then invalid_arg "Pool.run_ranges: jobs must be >= 1";
      j
    | None, Some p -> p.pool_jobs
    | None, None -> default_jobs ()
  in
  let rs = ranges ?align ~jobs:requested n in
  let k = Array.length rs in
  let work i =
    let lo, hi = rs.(i) in
    f lo hi
  in
  if k = 0 then ()
  else if k = 1 then work 0
  else begin
    let go p = run_batch ~width:(min k p.pool_jobs) ~submit_helper:(submit p) k work in
    match pool with Some p -> go p | None -> with_global_pool go
  end

(* --- combinators --- *)

(* Seeded fault for the verification harness (docs/DESIGN.md §11). *)
let fault_scramble = Fault.enabled "pool-scramble"

let mapi_array ?pool ?jobs f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run ?pool ?jobs n (fun i ->
        let slot = if fault_scramble then n - 1 - i else i in
        results.(slot) <- Some (f i xs.(i)));
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_array ?pool ?jobs f xs = mapi_array ?pool ?jobs (fun _ x -> f x) xs

let iter_array ?pool ?jobs f xs = run ?pool ?jobs (Array.length xs) (fun i -> f xs.(i))

let mapi ?pool ?jobs f xs = Array.to_list (mapi_array ?pool ?jobs f (Array.of_list xs))

let map ?pool ?jobs f xs = mapi ?pool ?jobs (fun _ x -> f x) xs

let iter ?pool ?jobs f xs = iter_array ?pool ?jobs f (Array.of_list xs)
