(* Sample statistics under the benchmark's percentile rule, the open-loop
   load generator with its due-time accounting, and the queue that times a
   server in CPU time. *)

exception Too_short of string

(* A percentile is reported only when at least this many samples lie beyond
   it; a shorter run fails instead of printing a tail built from one or two
   samples. *)
let min_beyond = 10

(* Nearest-rank percentile, [pct] in whole percent.  Integer rank arithmetic
   keeps the rank exact ([0.95 *. 200.] is not 190 in floating point). *)
let percentile ~name ~pct samples =
  if pct < 1 || pct > 99 then invalid_arg "Measure.percentile: pct must be in 1..99";
  let n = Array.length samples in
  let rank = ((pct * n) + 99) / 100 in
  if n - rank < min_beyond then
    raise
      (Too_short
         (Printf.sprintf "%s: p%d needs %d samples beyond it, the run has %d samples (%d beyond)"
            name pct min_beyond n (n - rank)));
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  sorted.(rank - 1)

let mean samples =
  if Array.length samples = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* The median of a few repeated measurements (set-up time).  Unlike
   [percentile] this has no minimum count: it summarizes repeats of one
   measurement, not a latency distribution. *)
let median_of xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Measure.median_of: empty"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Peak resident set of a process ([VmHWM] in /proc/<pid>/status), MB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM line in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* -- open-loop generation ---------------------------------------------------- *)

(* Request [i] of a stream at [rate] per second is due [i / rate] seconds
   after the stream starts, whether or not earlier requests have been
   answered. *)
let due_time ~rate i = float_of_int i /. rate

(* What the generator needs from its transport.  [now] is a monotonic clock
   in seconds; [send i] writes request [i]; [wait timeout] blocks at most
   [timeout] seconds and returns the response lines that arrived, each with
   its arrival time. *)
type transport = {
  now : unit -> float;
  send : int -> unit;
  wait : float -> (string * float) list;
}

type replay = {
  start : float;  (** Clock reading the due times count from. *)
  sent : float array;  (** When each request was actually written. *)
  responses : (string * float) list;  (** Lines in arrival order, with arrival time. *)
  timed_out : bool;  (** The stream ended with responses still missing. *)
}

(* Single-threaded open loop: write every request that is due, then wait for
   responses until the next one is due.  Stops when [n] lines have arrived,
   or when none has arrived for [idle_timeout] seconds after the last
   request went out.  Once per gap in which every request written so far
   has been answered and the next is due at least [idle_gap] seconds later,
   [idle next] runs first ([next] is the index of that request). *)
let open_loop ?(idle_timeout = 30.0) ?(idle = ignore) ?(idle_gap = 0.012) transport ~rate ~n =
  let start = transport.now () in
  let sent = Array.make n nan in
  let responses = ref [] in
  let received = ref 0 in
  let next = ref 0 in
  let idled = ref (-1) in
  let last_progress = ref start in
  let timed_out = ref false in
  while !received < n && not !timed_out do
    let now = transport.now () in
    while !next < n && start +. due_time ~rate !next <= now do
      transport.send !next;
      sent.(!next) <- transport.now ();
      incr next
    done;
    if
      !next < n && !idled < !next && !received >= !next
      && start +. due_time ~rate !next -. transport.now () >= idle_gap
    then begin
      idled := !next;
      idle !next
    end;
    let now = transport.now () in
    let timeout =
      if !next < n then Float.max 0.0 (start +. due_time ~rate !next -. now) else 0.1
    in
    match transport.wait timeout with
    | [] ->
      if !next >= n && transport.now () -. !last_progress > idle_timeout then
        timed_out := true
    | lines ->
      List.iter (fun r -> responses := r :: !responses) lines;
      received := !received + List.length lines;
      last_progress := transport.now ()
  done;
  { start; sent; responses = List.rev !responses; timed_out = !timed_out }

(* Latency of request [i], counted from when it was due: a stall in the
   generator or the server charges every request queued behind it. *)
let due_latency ~rate ~start i arrival = arrival -. (start +. due_time ~rate i)

(* How late the generator wrote request [i] (never negative). *)
let lag ~rate ~start i sent = Float.max 0.0 (sent -. (start +. due_time ~rate i))

(* -- the server's time in CPU time ---------------------------------------------- *)

(* Each request's share of a single server's CPU time, for a server that
   answers its requests one at a time in order.  [cpu.(k)] is the server's
   CPU seconds read just before request [k] was written, [cpu_end] a reading
   taken after the last answer with the server idle, [arrival.(k)] when the
   answer to [k] arrived ([nan] if none did).  A request written more than
   [gap] seconds after the answer to the one before it starts a busy period;
   the server is then blocked, so the reading is exact.  A period's CPU time
   is split over its requests in proportion to [weight] (the server's own
   time for each), evenly when those are all 0. *)
let service_times ?(gap = 0.001) ~sent ~arrival ~cpu ~cpu_end ~weight () =
  let n = Array.length sent in
  let starts_period k = k = 0 || sent.(k) -. arrival.(k - 1) > gap in
  let service = Array.make n 0.0 in
  let rec period a =
    if a < n then begin
      let b = ref (a + 1) in
      while !b < n && not (starts_period !b) do
        incr b
      done;
      let total = (if !b < n then cpu.(!b) else cpu_end) -. cpu.(a) in
      let w = Array.sub weight a (!b - a) in
      let sum = Array.fold_left ( +. ) 0.0 w in
      Array.iteri
        (fun j wj ->
          service.(a + j) <-
            total *. if sum > 0.0 then wj /. sum else 1.0 /. float_of_int (!b - a))
        w;
      period !b
    end
  in
  period 0;
  service

(* The due-time latency of each request at a single first-come first-served
   server that spends [service.(k)] seconds on request [k]: it starts a
   request when it is due or when the one before it is done, whichever is
   later (Lindley's recursion). *)
let queue_latencies ~rate service =
  let finish = ref neg_infinity in
  Array.mapi
    (fun k s ->
      let due = due_time ~rate k in
      finish := Float.max due !finish +. s;
      !finish -. due)
    service
