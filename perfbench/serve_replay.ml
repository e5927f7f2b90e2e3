(* serve-replay: a seeded JSONL request stream played at a fixed rate into
   the real [fastsc serve] daemon over its stdin/stdout, one connection,
   from a single-threaded open-loop generator, with the daemon's CPU time
   read before each request is written.  The traced run replays the same
   stream in-process through the serve stack's public calls. *)

module Protocol = Fastsc_serve.Protocol
module Ladder = Fastsc_serve.Ladder

let why =
  "The only path through Protocol, all four Ladder rungs, the stale-witness cache and Server \
   dispatch, as an open loop at a fixed rate behind the daemon's queue"

type expect = Full | Stale | Greedy

let expect_name = function Full -> "full" | Stale -> "stale" | Greedy -> "greedy"

type request = {
  id : string;
  bench : string;
  n : int;
  seed : int;
  algorithm : string;
  deadline0 : bool;  (** Carries [deadline_ms: 0]. *)
  expect : expect;  (** The ladder rung that must answer it. *)
}

let benches = [| "bv"; "qaoa"; "ising"; "qgan"; "xeb" |]

let sizes = [| 9; 16 |]

(* Requests per second: a fifth of the daemon's capacity on a 2-core
   host, so the queue stays short and a stall shows as a tail, not a
   backlog, and a 20-s run still sends the 1,000 requests p99 needs. *)
let rate = 50.0

(* The latency limit of within_limit_share. *)
let limit_ms = 250.0

let line r =
  Printf.sprintf {|{"id":"%s","bench":"%s","n":%d,"seed":%d,"algorithm":"%s"%s}|} r.id r.bench r.n
    r.seed r.algorithm
    (if r.deadline0 then {|,"deadline_ms":0|} else "")

let full ~id ~bench ~n ~seed ~algorithm =
  { id; bench; n; seed; algorithm; deadline0 = false; expect = Full }

(* The warm-up prefix, answered before timing starts: every family and size
   on device seeds 1 and 2 with color-dynamic, and seed 1 with baseline-n.
   Its problems are the ones a deadline_ms: 0 request may find in the
   stale-witness cache. *)
let warmup =
  Array.of_list
    (List.concat_map
       (fun bench ->
         List.concat_map
           (fun n ->
             List.map
               (fun (seed, algorithm) ->
                 full
                   ~id:(Printf.sprintf "w-%s-%d-%d-%s" bench n seed algorithm)
                   ~bench ~n ~seed ~algorithm)
               [ (1, "color-dynamic"); (2, "color-dynamic"); (1, "baseline-n") ])
           (Array.to_list sizes))
       (Array.to_list benches))

(* The timed stream, a pure function of the seed and the run length.  The
   run length fixes which requests are sent; the seed fixes only their
   order (one shuffle of the whole run), so every seed sends the same
   problems and the answers' quality figures do not depend on it.  Per
   (family, size) pair and per 200 requests of run length: 14 color-dynamic
   and 4 baseline-n requests with no deadline and two with deadline_ms: 0.
   No-deadline requests cycle through a pool of device seeds sized so that
   about a third of the stream repeats an earlier problem, and so that the
   ladder's stale-witness cache (1024 entries, emptied when full) never
   fills: an emptied cache would turn a [stale] answer into a [greedy] one.
   A deadline_ms: 0 request expires on both SMT rungs; it asks either for a
   warm-up problem (always in the stale cache, so answered [stale]) or for a
   chip no other request uses (never cached, so answered [greedy]).
   Neither depends on timing or on the order in which concurrent requests
   finish. *)

(* [Ladder]'s stale-witness cache size. *)
let stale_capacity = 1024

(* Distinct problems the daemon stores in its stale cache over a run: the
   warm-up prefix and every no-deadline request. *)
let distinct_problems requests =
  let keys = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      if not r.deadline0 then Hashtbl.replace keys (r.bench, r.n, r.seed, r.algorithm) ())
    (Array.append warmup requests);
  Hashtbl.length keys

let stale_variants = [| (1, "color-dynamic"); (2, "color-dynamic"); (1, "baseline-n") |]

let stream ~seed ~seconds =
  let k = max 1 (int_of_float rate * seconds / 200) in
  let pool = max 1 (k * 200 * 37 / 1000) in
  let pairs =
    List.concat_map
      (fun bench -> List.map (fun n -> (bench, n)) (Array.to_list sizes))
      (Array.to_list benches)
  in
  let per_pair p (bench, n) =
    let request ?(deadline0 = false) ?(expect = Full) seed algorithm =
      { id = ""; bench; n; seed; algorithm; deadline0; expect }
    in
    List.concat
      [
        List.init (14 * k) (fun j -> request (100 + (j mod pool)) "color-dynamic");
        List.init (4 * k) (fun j -> request (100 + (j mod pool)) "baseline-n");
        List.init k (fun j ->
            let seed, algorithm = stale_variants.(j mod Array.length stale_variants) in
            request ~deadline0:true ~expect:Stale seed algorithm);
        List.init k (fun j ->
            request ~deadline0:true ~expect:Greedy (10_000_000 + (1000 * p) + j) "color-dynamic");
      ]
  in
  let requests = Array.of_list (List.concat (List.mapi per_pair pairs)) in
  Rng.shuffle (Rng.create seed) requests;
  let requests = Array.mapi (fun i r -> { r with id = Printf.sprintf "r%d" i }) requests in
  if distinct_problems requests >= stale_capacity then
    invalid_arg "Serve_replay.stream: the run would overflow the stale-witness cache";
  requests

(* Share of timed requests whose problem appeared earlier in the stream. *)
let repeat_share requests =
  let seen = Hashtbl.create 256 in
  let repeats = ref 0 in
  Array.iter
    (fun r ->
      let key = (r.bench, r.n, r.seed, r.algorithm) in
      if Hashtbl.mem seen key then incr repeats else Hashtbl.add seen key ())
    requests;
  Measure.ratio !repeats (Array.length requests)

(* -- responses --------------------------------------------------------------- *)

type response = {
  r_id : string;
  status : string;
  tier : string;
  latency_ms : float;  (** The daemon's own time for the request. *)
  retries : int;
  attempts : (string * float * string) list;  (** tier, ms, outcome *)
  program : Workloads.program option;
  scrubbed : string;  (** The line with every latency field zeroed. *)
}

let rec scrub = function
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (k, v) -> if k = "latency_ms" || k = "ms" then (k, Json.Float 0.0) else (k, scrub v))
         fields)
  | Json.List items -> Json.List (List.map scrub items)
  | v -> v

let decode text =
  let doc = Json.parse text in
  let str k = match Json.member k doc with Some (Json.String s) -> s | _ -> "" in
  let num k j =
    match Json.member k j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> nan
  in
  let int k j = match Json.member k j with Some (Json.Int i) -> i | _ -> -1 in
  let program =
    match Json.member "metrics" doc with
    | Some m ->
      Some
        {
          Workloads.success = num "success" m;
          log10_success = num "log10_success" m;
          depth = int "depth" m;
          n_gates = int "n_gates" m;
          swaps = 0;
        }
    | None -> None
  in
  let attempts =
    match Json.member "attempts" doc with
    | Some (Json.List items) ->
      List.map
        (fun a ->
          let s k = match Json.member k a with Some (Json.String s) -> s | _ -> "" in
          (s "tier", num "ms" a, s "outcome"))
        items
    | _ -> []
  in
  {
    r_id = str "id";
    status = str "status";
    tier = str "tier";
    latency_ms = num "latency_ms" doc;
    retries = int "retries" doc;
    attempts;
    program;
    scrubbed = Json.to_string ~pretty:false (scrub doc);
  }

(* The output checks of one request's answers: exactly one, [ok], from the
   expected rung, with a finite success. *)
let check r answers =
  match answers with
  | [] -> Error "no response"
  | _ :: _ :: _ -> Error (Printf.sprintf "%d responses" (List.length answers))
  | [ a ] ->
    if a.status <> "ok" then Error ("status " ^ a.status)
    else if a.tier <> expect_name r.expect then
      Error (Printf.sprintf "answered at %s, expected %s" a.tier (expect_name r.expect))
    else (
      match a.program with
      | Some p when Float.is_finite p.Workloads.log10_success -> Ok a
      | _ -> Error "no finite success")

(* -- the daemon -------------------------------------------------------------- *)

type daemon = {
  pid : int;
  to_d : Unix.file_descr;
  from_d : Unix.file_descr;
  partial : Buffer.t;
  mutable closed : bool;
}

let spawn ~exe ~jobs =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let env =
    Array.append
      [| Printf.sprintf "FASTSC_JOBS=%d" jobs |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"FASTSC_" v))
            (Array.to_list (Unix.environment ()))))
  in
  let pid = Unix.create_process_env exe [| exe; "serve" |] env in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_d = in_w; from_d = out_r; partial = Buffer.create 4096; closed = false }

let send d text =
  let b = Bytes.of_string (text ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write d.to_d b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Lines that arrive within [timeout] seconds, stamped on arrival; [None] at
   end of file. *)
let read_lines d timeout =
  match Unix.select [ d.from_d ] [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Some []
  | [], _, _ -> Some []
  | _ -> (
    match Unix.read d.from_d chunk 0 (Bytes.length chunk) with
    | 0 -> None
    | k ->
      let at = Deadline.now_s () in
      let lines = ref [] in
      for i = 0 to k - 1 do
        match Bytes.get chunk i with
        | '\n' ->
          lines := (Buffer.contents d.partial, at) :: !lines;
          Buffer.clear d.partial
        | c -> Buffer.add_char d.partial c
      done;
      Some (List.rev !lines))

(* Like [read_lines], but at end of file it waits out the timeout instead of
   returning at once, so a dead daemon does not spin the generator. *)
let lines_or_empty d timeout =
  match read_lines d timeout with
  | Some lines -> lines
  | None ->
    Unix.sleepf timeout;
    []

(* Send [requests] at once and collect one line per request (fewer if the
   daemon exits or stays silent for 60 s). *)
let answer_all d requests =
  Array.iter (fun r -> send d (line r)) requests;
  let give_up = Deadline.now_s () +. 60.0 in
  let rec collect got count =
    if count >= Array.length requests || Deadline.now_s () >= give_up then got
    else
      match read_lines d 0.5 with
      | None -> got
      | Some lines -> collect (List.rev_append lines got) (count + List.length lines)
  in
  List.rev_map (fun (text, _) -> decode text) (collect [] 0)

(* Close the daemon's stdin (it drains and exits), read to end of file and
   reap it; kill it if it has not exited within 30 s. *)
let shutdown d =
  if not d.closed then begin
    d.closed <- true;
    (try Unix.close d.to_d with Unix.Unix_error _ -> ());
    let give_up = Deadline.now_s () +. 30.0 in
    let rec drain () =
      if Deadline.now_s () < give_up then
        match read_lines d 0.5 with None -> () | Some _ -> drain ()
    in
    drain ();
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Deadline.now_s () < give_up ->
        Unix.sleepf 0.01;
        reap ()
      | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      | _ -> ()
    in
    reap ();
    Unix.close d.from_d
  end

(* Boot a daemon and answer the warm-up prefix; every warm-up answer must
   come from the full rung. *)
let boot ~exe ~jobs =
  let d = spawn ~exe ~jobs in
  match answer_all d warmup with
  | answers ->
    Array.iter
      (fun r ->
        match check r (List.filter (fun a -> a.r_id = r.id) answers) with
        | Ok _ -> ()
        | Error msg ->
          shutdown d;
          failwith (Printf.sprintf "warm-up %s: %s" r.id msg))
      warmup;
    d
  | exception e ->
    shutdown d;
    raise e

(* -- the timed replay -------------------------------------------------------- *)

type outcome = {
  latency_s : float option;  (** From the due time, wall clock; [None] when unanswered. *)
  answer : (response, string) result;
}

type replay_result = {
  outcomes : outcome array;
  service_s : float array;  (** The daemon's CPU seconds on each request. *)
  start : float;  (** The clock reading due times count from. *)
  span_s : float;  (** Stream start to the last response. *)
  lag_max_s : float;
  rss_mb : float;  (** The daemon's VmHWM. *)
}

(* CPU seconds the daemon has run: the first field of
   /proc/<pid>/schedstat, in nanoseconds.  The daemon is one thread at one
   job.  Like the closed loops' CPU time, it leaves out the moments the
   hypervisor takes the core away and the time it takes to wake an idle
   core, which the wall clock counts. *)
let daemon_cpu_s d =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/schedstat" d.pid) (fun ic ->
      match In_channel.input_line ic with
      | Some l -> Scanf.sscanf l "%Ld" (fun ns -> Int64.to_float ns /. 1e9)
      | None -> failwith "empty schedstat")

(* Play [requests] into the daemon at [rate]; [idle] runs in gaps where
   nothing is outstanding (see [Measure.open_loop]). *)
let replay ?idle d requests =
  let n = Array.length requests in
  let cpu = Array.make n nan in
  let transport =
    {
      Measure.now = Deadline.now_s;
      send =
        (fun i ->
          cpu.(i) <- daemon_cpu_s d;
          send d (line requests.(i)));
      wait = (fun timeout -> lines_or_empty d timeout);
    }
  in
  let r = Measure.open_loop ?idle transport ~rate ~n in
  (* let the daemon finish its last answer and block before the last
     reading *)
  Unix.sleepf 0.05;
  let cpu_end = daemon_cpu_s d in
  let rss_mb = Measure.peak_rss_mb ~pid:(string_of_int d.pid) () in
  let by_id = Hashtbl.create (Array.length requests) in
  List.iter
    (fun (text, at) ->
      match decode text with
      | a -> Hashtbl.add by_id a.r_id (a, at)
      | exception Json.Parse_error _ -> ())
    r.Measure.responses;
  let last = List.fold_left (fun acc (_, at) -> Float.max acc at) r.Measure.start r.Measure.responses in
  let lag_max_s = ref 0.0 in
  let answers = Array.map (fun req -> Hashtbl.find_all by_id req.id) requests in
  let arrival = Array.map (function [ (_, at) ] -> at | _ -> nan) answers in
  let weight =
    Array.map
      (function [ (a, _) ] when Float.is_finite a.latency_ms -> a.latency_ms | _ -> 0.0)
      answers
  in
  let service_s = Measure.service_times ~sent:r.Measure.sent ~arrival ~cpu ~cpu_end ~weight () in
  let outcomes =
    Array.mapi
      (fun i req ->
        lag_max_s := Float.max !lag_max_s (Measure.lag ~rate ~start:r.Measure.start i r.Measure.sent.(i));
        {
          latency_s =
            (match answers.(i) with
            | [ (_, at) ] -> Some (Measure.due_latency ~rate ~start:r.Measure.start i at)
            | _ -> None);
          answer = check req (List.map fst answers.(i));
        })
      requests
  in
  {
    outcomes;
    service_s;
    start = r.Measure.start;
    span_s = last -. r.Measure.start;
    lag_max_s = !lag_max_s;
    rss_mb;
  }

(* -- the in-process replay of the traced run ----------------------------------- *)

(* The warm-up prefix through the serve stack in-process, as [boot] sends
   it to the daemon. *)
let warm_in_process () =
  Array.iter (fun r -> ignore (Ladder.compile (Protocol.parse_request (line r)))) warmup

(* The same stream through the serve stack's public calls, one request at a
   time: parse, realize (timed as its own call; the ladder realizes again
   inside), the ladder, and the response line.  Returns each request's
   scrubbed response line. *)
let in_process tr requests =
  Array.mapi
    (fun i r ->
      fst
        (Trace.op_span tr ~label:r.id i (fun () ->
             let req =
               Trace.span tr "protocol.parse_request" (fun () -> Protocol.parse_request (line r))
             in
             ignore (Trace.span tr "protocol.realize" (fun () -> Protocol.realize req));
             let resp = Trace.span tr "ladder.compile" (fun () -> Ladder.compile req) in
             Trace.span tr "protocol.response_line" (fun () ->
                 Protocol.response_line ~scrub:true resp))))
    requests
