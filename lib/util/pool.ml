(* The process's one domain pool, with chunked, deterministic maps.

   Execution model: a batch of [n] cells is cut into at most [width * chunks_per_job]
   index ranges.  Executors — the calling domain plus any idle workers — claim
   chunks from an atomic counter and write results back by index.  The caller
   always executes chunks itself until the counter is exhausted and only then
   blocks on the batch latch, so a batch completes even if every worker is
   busy — this is what makes nested maps safe. *)

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

(* --- the worker domains --- *)

type workers = {
  width : int;  (* [width - 1] workers; the domain that maps is the last executor *)
  mutex : Mutex.t;
  wake : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let worker_loop w =
  let rec loop () =
    Mutex.lock w.mutex;
    while Queue.is_empty w.queue && not w.stop do
      Condition.wait w.wake w.mutex
    done;
    if Queue.is_empty w.queue then Mutex.unlock w.mutex
    else begin
      let job = Queue.pop w.queue in
      Mutex.unlock w.mutex;
      (* a raising job must not kill the worker: batch jobs capture their own
         failures (see run), so anything escaping here is a [submit]ted job
         whose error belongs to that job alone — the worker keeps serving,
         and a re-size's Domain.join never re-raises *)
      (try job () with _ -> ());
      loop ()
    end
  in
  loop ()

let spawn width =
  let w =
    {
      width;
      mutex = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
    }
  in
  w.domains <- List.init (width - 1) (fun _ -> Domain.spawn (fun () -> worker_loop w));
  w

(* Let [w]'s workers drain their queue, then join them. *)
let retire w =
  Mutex.lock w.mutex;
  w.stop <- true;
  Condition.broadcast w.wake;
  Mutex.unlock w.mutex;
  List.iter Domain.join w.domains

let current : workers option ref = ref None

let current_mutex = Mutex.create ()

(* Take the current workers out if they were spawned for another width; the
   caller retires them after releasing [current_mutex], so a job that maps
   while its worker is being retired cannot deadlock. *)
let take_stale width =
  match !current with
  | Some w when w.width <> width ->
    current := None;
    Some w
  | _ -> None

(* A change of width retires the old workers at once rather than at next
   use: idle domains still slow every minor collection (two workers waiting
   on a condition made a single-domain allocation loop 2-5x slower on a
   2-core x86-64 host), so none should outlive their width. *)
let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Mutex.lock current_mutex;
  Atomic.set override (Some j);
  let stale = take_stale j in
  Mutex.unlock current_mutex;
  Option.iter retire stale

(* Queue [jobs] for the workers of the given width, spawning them on first
   use.  Queueing under [current_mutex] means a concurrent re-size retires a
   set of workers only after these jobs are on its queue, which it drains. *)
let enqueue width jobs =
  Mutex.lock current_mutex;
  let stale = take_stale width in
  let w =
    match !current with
    | Some w -> w
    | None ->
      let w = spawn width in
      current := Some w;
      w
  in
  Mutex.lock w.mutex;
  List.iter (fun job -> Queue.push job w.queue) jobs;
  Condition.broadcast w.wake;
  Mutex.unlock w.mutex;
  Mutex.unlock current_mutex;
  Option.iter retire stale

let submit job =
  let width = default_jobs () in
  if width = 1 then (try job () with _ -> ()) else enqueue width [ job ]

(* --- chunked batch execution --- *)

type batch = {
  b_mutex : Mutex.t;
  b_done : Condition.t;
  mutable remaining : int;  (* chunks not yet finished *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
}

(* Run [work i] for every [i] in [0, n), on [default_jobs ()] executors. *)
let run n work =
  let width = default_jobs () in
  if width = 1 || n <= 1 then
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
    enqueue width (List.init (width - 1) (fun _ -> execute));
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

(* --- combinators --- *)

(* Seeded fault for the verification harness (DESIGN.md §11). *)
let fault_scramble = Fault.enabled "pool-scramble"

let mapi_array f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run n (fun i ->
        let slot = if fault_scramble then n - 1 - i else i in
        results.(slot) <- Some (f i xs.(i)));
    Array.map (function Some v -> v | None -> assert false) results
  end

let map f xs = Array.to_list (mapi_array (fun _ x -> f x) (Array.of_list xs))
