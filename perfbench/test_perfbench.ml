(* The benchmark's own tests: the percentile rule, due-time and lag
   accounting on a synthetic schedule, the open loop's idle hook, the
   CPU-time queue, the canary's arithmetic, seeded op lists, the serve
   output checks, span self-time accounting, and the metric catalogue
   against the committed BENCHMARK.json. *)

open Perfbench

let failures = ref 0

let test name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let raises_too_short f = match f () with _ -> false | exception Measure.Too_short _ -> true

let close a b = Float.abs (a -. b) < 1e-9

(* -- the percentile rule ----------------------------------------------------- *)

let () =
  let samples n = Array.init n (fun i -> float_of_int (n - i)) in
  test "p95 of 200 samples is the 190th smallest"
    (Measure.percentile ~name:"t" ~pct:95 (samples 200) = 190.0);
  test "p95 refuses 199 samples" (raises_too_short (fun () ->
      Measure.percentile ~name:"t" ~pct:95 (samples 199)));
  test "p99 of 1000 samples" (Measure.percentile ~name:"t" ~pct:99 (samples 1000) = 990.0);
  test "p99 refuses 999 samples" (raises_too_short (fun () ->
      Measure.percentile ~name:"t" ~pct:99 (samples 999)));
  test "p50 needs 20 samples" (raises_too_short (fun () ->
      Measure.percentile ~name:"t" ~pct:50 (samples 19)));
  test "p50 of 20 samples" (Measure.percentile ~name:"t" ~pct:50 (samples 20) = 10.0);
  test "median of repeats" (Measure.median_of [ 3.0; 1.0; 2.0 ] = 2.0)

(* -- due-time latency and generator lag on a synthetic schedule ------------- *)

(* A fake clock and a one-server FIFO with a fixed service time.  The
   generator is blocked for 0.25 s while writing request 3, so requests 3
   and 4 go out late; their latencies still count from their due times, and
   the backlog the stall leaves behind shows in the requests after them.
   All times are binary fractions, so the arithmetic is exact. *)
let () =
  let rate = 8.0 and service = 0.0625 and n = 10 in
  let clock = ref 0.0 in
  let server_free = ref 0.0 in
  let pending = ref [] in
  let send i =
    if i = 3 then clock := !clock +. 0.25;
    let start = Float.max !clock !server_free in
    server_free := start +. service;
    pending := !pending @ [ (Printf.sprintf "r%d" i, !server_free) ]
  in
  let wait timeout =
    let next = match !pending with (_, at) :: _ -> at | [] -> infinity in
    clock := Float.min (!clock +. timeout) (Float.max !clock next);
    let ready, rest = List.partition (fun (_, at) -> at <= !clock) !pending in
    pending := rest;
    ready
  in
  let r = Measure.open_loop { Measure.now = (fun () -> !clock); send; wait } ~rate ~n in
  test "every response collected" (List.length r.Measure.responses = n && not r.Measure.timed_out);
  let latency i =
    let at = List.assoc (Printf.sprintf "r%d" i) r.Measure.responses in
    Measure.due_latency ~rate ~start:r.Measure.start i at
  in
  let lag i = Measure.lag ~rate ~start:r.Measure.start i r.Measure.sent.(i) in
  test "on-time request: latency is the service time" (close (latency 1) service);
  test "stalled request: written late" (close (lag 3) 0.25 && close (lag 4) 0.125);
  test "stalled request: latency counts from its due time"
    (close (latency 3) (0.25 +. service) && close (latency 4) (0.125 +. (2.0 *. service)));
  test "the backlog delays the next due request" (close (latency 5) (3.0 *. service));
  test "the queue drains" (close (latency 9) service);
  test "no lag once caught up" (close (lag 6) 0.0)

(* A stream whose last response never arrives ends by timing out. *)
let () =
  let clock = ref 0.0 in
  let wait timeout =
    clock := !clock +. timeout;
    []
  in
  let r =
    Measure.open_loop ~idle_timeout:1.0
      { Measure.now = (fun () -> !clock); send = ignore; wait }
      ~rate:100.0 ~n:3
  in
  test "unanswered stream times out" (r.Measure.timed_out && r.Measure.responses = [])

(* The idle hook: on a fake clock, a server that answers each request 1/16 s
   after it is written leaves a gap of 1/16 s before the next one is due. *)
let () =
  let rate = 8.0 and service = 0.0625 and n = 5 in
  let run ?idle_gap () =
    let clock = ref 0.0 and pending = ref [] and calls = ref [] in
    let send i = pending := !pending @ [ (Printf.sprintf "r%d" i, !clock +. service) ] in
    let wait timeout =
      let next = match !pending with (_, at) :: _ -> at | [] -> infinity in
      clock := Float.min (!clock +. timeout) (Float.max !clock next);
      let ready, rest = List.partition (fun (_, at) -> at <= !clock) !pending in
      pending := rest;
      ready
    in
    let idle next = calls := next :: !calls in
    ignore (Measure.open_loop ~idle ?idle_gap { Measure.now = (fun () -> !clock); send; wait } ~rate ~n);
    List.rev !calls
  in
  test "idle runs once in each gap with nothing outstanding" (run () = [ 1; 2; 3; 4 ]);
  test "idle never runs when the next request is due too soon" (run ~idle_gap:0.1 () = [])

(* -- the server's time in CPU time ---------------------------------------------- *)

let () =
  let service ?(weight = [| 1.0; 1.0; 1.0 |]) ~sent ~arrival ~cpu ~cpu_end () =
    Measure.service_times ~sent ~arrival ~cpu ~cpu_end ~weight ()
  in
  test "an idle server between requests: CPU readings difference"
    (service ~sent:[| 0.0; 1.0; 2.0 |] ~arrival:[| 0.5; 1.5; 2.5 |] ~cpu:[| 0.0; 0.25; 0.75 |]
       ~cpu_end:1.0 ()
    = [| 0.25; 0.5; 0.25 |]);
  (* request 1 is written while request 0 is in service, so the reading
     before it is not used; the period's 0.75 s split 2:1 by weight *)
  test "a busy period is split by weight"
    (service ~weight:[| 2.0; 1.0; 1.0 |] ~sent:[| 0.0; 1.0; 2.0 |] ~arrival:[| 1.5; 1.75; 2.5 |]
       ~cpu:[| 0.0; 0.5; 0.75 |] ~cpu_end:1.0 ()
    = [| 0.5; 0.25; 0.25 |]);
  test "a request written just after an answer joins its period"
    (service ~sent:[| 0.0; 1.0; 2.0 |] ~arrival:[| 0.9995; 1.5; 2.5 |] ~cpu:[| 0.0; 0.25; 0.75 |]
       ~cpu_end:1.0 ()
    = [| 0.375; 0.375; 0.25 |]);
  test "an unanswered request joins the next one to its period"
    (service ~weight:[| 0.0; 0.0; 1.0 |] ~sent:[| 0.0; 1.0; 2.0 |] ~arrival:[| nan; 1.5; 2.5 |]
       ~cpu:[| 0.0; 0.25; 0.75 |] ~cpu_end:1.0 ()
    = [| 0.375; 0.375; 0.25 |]);
  (* rate 8: due at 0, 1/8, 1/4; request 1 holds the server until 3/8 *)
  test "queue latencies count from the due time"
    (Measure.queue_latencies ~rate:8.0 [| 0.0625; 0.25; 0.0625 |] = [| 0.0625; 0.25; 0.1875 |])

(* -- the host-speed canary ------------------------------------------------------ *)

let () =
  (* samples one second apart, given oldest first *)
  let run samples =
    { Canary.samples = List.rev (List.mapi (fun i s -> (float_of_int i, s)) samples) }
  in
  let r = Canary.reference_s in
  test "speed factor 1 at the reference speed" (close (Canary.speed_factor (run [ r; r; r ])) 1.0);
  test "a host twice as slow scales timings by one half"
    (close (Canary.speed_factor (run [ 2.0 *. r; 2.0 *. r; 9.0 *. r ])) 0.5);
  let steady = List.init 10 (fun _ -> r) in
  test "no drift on a steady host" (close (Canary.drift (run steady)) 0.0);
  test "drift: last fifth over first fifth"
    (close (Canary.drift (run (steady @ List.init 10 (fun _ -> 1.25 *. r)))) 0.25);
  test "drift: a host that sped up reads negative"
    (close (Canary.drift (run (List.init 10 (fun _ -> 2.0 *. r) @ steady))) (-0.5));
  (* the host runs at half speed for samples 20..39 *)
  let phased = run (List.init 60 (fun i -> if i >= 20 && i < 40 then 2.0 *. r else r)) in
  let local = Canary.local_factors phased [| 0.0; 10.5; 30.0; 59.0; 100.0 |] in
  test "local factors follow a slow phase"
    (close local.(0) 1.0 && close local.(1) 1.0 && close local.(2) 0.5 && close local.(3) 1.0
   && close local.(4) 1.0);
  test "a canary sample takes time" (Canary.sample () > 0.0)

(* -- seeded op lists ---------------------------------------------------------- *)

let sorted a =
  let c = Array.copy a in
  Array.sort compare c;
  c

let () =
  let at seed f = f ~seed ~seconds:Metrics.run_seconds in
  let same f = at 5 f = at 5 f in
  let differ f = at 5 f <> at 6 f in
  test "paper-compile op list: same seed, same list" (same Workloads.paper_ops);
  test "paper-compile op list: seeds differ" (differ Workloads.paper_ops);
  test "compile-scale op list: same seed, same list" (same Workloads.scale_ops);
  test "compile-scale op list: seeds differ" (differ Workloads.scale_ops);
  test "validate-sim op list: same seed, same list" (same Workloads.sim_ops);
  test "validate-sim op list: seeds differ" (differ Workloads.sim_ops);
  test "serve-replay stream: same seed, same stream" (same Serve_replay.stream);
  test "serve-replay stream: seeds differ" (differ Serve_replay.stream);
  (* every seed runs the same mix *)
  let mix f key = sorted (Array.map key (at 5 f)) = sorted (Array.map key (at 6 f)) in
  test "paper-compile mix is seed-independent" (mix Workloads.paper_ops Fun.id);
  test "compile-scale mix is seed-independent"
    (mix Workloads.scale_ops (fun o -> (o.Workloads.s_bench, o.Workloads.s_n)));
  test "serve-replay sends the same problems for every seed"
    (mix Serve_replay.stream (fun r -> { r with Serve_replay.id = "" }));
  test "paper-compile: 98 cells" (Array.length Workloads.paper_cells = 98);
  test "validate-sim: 39 cells" (Array.length Workloads.sim_cells = 39);
  let length seconds f = Array.length (f ~seed:1 ~seconds) in
  test "a one-second run still has ops"
    (length 1 Workloads.paper_ops > 0
    && length 1 Workloads.scale_ops > 0
    && length 1 Workloads.sim_ops > 0
    && length 1 Serve_replay.stream > 0);
  test "runs are long enough for their percentiles"
    (length Metrics.run_seconds Workloads.scale_ops >= 200
    && length Metrics.run_seconds Workloads.sim_ops >= 200
    && length Metrics.run_seconds Serve_replay.stream >= 1000)

(* -- the serve stream and its output checks ------------------------------------ *)

let () =
  let open Serve_replay in
  let s = stream ~seed:3 ~seconds:Metrics.run_seconds in
  let count p = Array.fold_left (fun acc r -> if p r then acc + 1 else acc) 0 s in
  let problem r = (r.bench, r.n, r.seed, r.algorithm) in
  test "a tenth of the stream carries deadline_ms: 0"
    (count (fun r -> r.deadline0) * 10 = Array.length s);
  test "deadline_ms: 0 exactly on the stale and greedy requests"
    (count (fun r -> r.deadline0 <> (r.expect <> Full)) = 0);
  let warm = Array.map problem warmup in
  test "stale requests ask for warm-up problems"
    (count (fun r -> r.expect = Stale && not (Array.mem (problem r) warm)) = 0);
  test "greedy requests use chips no other request uses"
    (count (fun r ->
         r.expect = Greedy && Array.exists (fun o -> o.id <> r.id && o.seed = r.seed) s)
    = 0);
  test "the stale-witness cache never fills" (distinct_problems s < stale_capacity);
  test "a stream that would fill it is refused"
    (match stream ~seed:3 ~seconds:60 with _ -> false | exception Invalid_argument _ -> true);
  let repeats = repeat_share s in
  test (Printf.sprintf "about a third of the stream repeats (%.2f)" repeats)
    (repeats > 0.2 && repeats < 0.45);
  let req = s.(0) in
  let answer ?(latency = 1.5) ?(success = 0.5) tier =
    decode
      (Printf.sprintf
         {|{"id":"%s","status":"ok","tier":"%s","algorithm":"color-dynamic","retries":1,|}
         req.id tier
       ^ Printf.sprintf {|"latency_ms":%g,"attempts":[{"tier":"full","ms":%g,"outcome":"expired"}],|}
           latency latency
       ^ Printf.sprintf {|"metrics":{"success":%g,"log10_success":%s,"depth":3,"n_gates":7}}|} success
           (* the protocol writes a non-finite float as a string *)
           (if success > 0.0 then Printf.sprintf "%.17g" (log10 success) else {|"-infinity"|}))
  in
  let right = expect_name req.expect in
  let wrong = if right = "full" then "greedy" else "full" in
  test "one answer from the expected rung passes" (Result.is_ok (check req [ answer right ]));
  test "a missing answer fails" (Result.is_error (check req []));
  test "two answers fail" (Result.is_error (check req [ answer right; answer right ]));
  test "the wrong rung fails" (Result.is_error (check req [ answer wrong ]));
  test "an error response fails"
    (Result.is_error
       (check req [ decode {|{"id":"r0","status":"error","code":"internal","message":"x"}|} ]));
  test "an underflowed success fails"
    (Result.is_error (check req [ answer ~success:0.0 right ]));
  test "scrubbing zeroes the latencies"
    ((answer right).scrubbed = (answer ~latency:9.0 right).scrubbed);
  test "scrubbing keeps the answer"
    ((answer right).scrubbed <> (answer ~success:0.25 right).scrubbed)

(* -- span self times ----------------------------------------------------------- *)

let busy s =
  let until = Deadline.now_s () +. s in
  while Deadline.now_s () < until do
    ()
  done

let () =
  let t = Trace.create () in
  let tr = Some t in
  ignore
    (Trace.op_span tr ~label:"x" 0 (fun () ->
         busy 0.002;
         Trace.span tr "a" (fun () -> busy 0.003; Trace.span tr "b" (fun () -> busy 0.002));
         Trace.span tr "c" (fun () -> busy 0.001)));
  let spans = Trace.spans t in
  let self = Trace.self_times t in
  let root = spans.(0) in
  test "op span is the root" (root.Trace.name = "op" && root.Trace.parent = -1);
  test "children point at their parents"
    (Array.for_all (fun (s : Trace.span) -> s.op = 0) spans
    && spans.(2).Trace.parent = spans.(1).Trace.id
    && spans.(3).Trace.parent = root.Trace.id);
  test "self times add up to the op's duration"
    (Float.abs (Array.fold_left ( +. ) 0.0 self -. Trace.duration root) < 1e-9);
  test "a parent's self time excludes its children"
    (close self.(1) (Trace.duration spans.(1) -. Trace.duration spans.(2)));
  test "share of a layer" (close (Trace.share t "b") (self.(2) /. Trace.duration root));
  test "an untraced span is a plain call" (Trace.span None "x" (fun () -> 41) + 1 = 42)

(* -- the metric catalogue ----------------------------------------------------- *)

let workloads =
  List.map (fun (w : Workloads.workload) -> (w.name, w.why)) Workloads.closed
  @ [ ("serve-replay", Serve_replay.why) ]

let () =
  let names ms = List.map (fun (m : Metrics.metric) -> m.name) ms in
  let all = names Metrics.end_to_end @ names Metrics.per_layer in
  test "metric names are unique" (List.length (List.sort_uniq compare all) = List.length all);
  test "end-to-end metrics all have bounds within 0.25"
    (List.for_all
       (fun (m : Metrics.metric) ->
         match m.bound with Some b -> b > 0.0 && b <= 0.25 | None -> false)
       Metrics.end_to_end);
  test "setup_s has the largest bound"
    (let b name = Option.get (List.find (fun (m : Metrics.metric) -> m.name = name) Metrics.end_to_end).bound in
     List.for_all (fun (m : Metrics.metric) -> Option.get m.bound <= b "setup_s") Metrics.end_to_end);
  test "per-layer metrics have no bound"
    (List.for_all (fun (m : Metrics.metric) -> m.bound = None) Metrics.per_layer);
  let expect =
    [
      ("setup_s", "s", Metrics.Lower); ("latency_p50_ms", "ms", Metrics.Lower);
      ("latency_p95_ms", "ms", Metrics.Lower); ("throughput_ops_s", "1/s", Metrics.Higher);
      ("peak_rss_mb", "MB", Metrics.Lower); ("ok_share", "fraction", Metrics.Higher);
      ("within_limit_share", "fraction", Metrics.Higher);
      ("neg_log10_success_mean", "decades", Metrics.Lower);
      ("schedule_depth_mean", "steps", Metrics.Lower); ("native_gates_mean", "gates", Metrics.Lower);
    ]
  in
  test "end-to-end names, units and directions"
    (List.map (fun (m : Metrics.metric) -> (m.name, m.unit, m.better)) Metrics.end_to_end = expect);
  let values trace = List.map (fun (m : Metrics.metric) -> (m.name, 1.5)) (if trace then Metrics.per_layer else Metrics.end_to_end) in
  let result trace vs = Metrics.result_json ~trace ~correct:true ~attempted:3 ~failed:0 vs in
  let rejects trace vs = match result trace vs with _ -> false | exception Invalid_argument _ -> true in
  (match result false (values false) with
  | Json.Obj [ ("correct", Json.Bool true); ("attempted", Json.Int 3); ("failed", Json.Int 0); ("metrics", Json.Obj ms) ] ->
    test "result line: every metric with its unit"
      (List.map fst ms = names Metrics.end_to_end
      && List.for_all2
           (fun (_, v) (m : Metrics.metric) ->
             v = Json.Obj [ ("value", Json.Float 1.5); ("unit", Json.String m.unit) ])
           ms Metrics.end_to_end)
  | _ -> test "result line shape" false);
  test "traced result carries the per-layer metrics"
    (match result true (values true) with Json.Obj _ -> true | _ -> false | exception _ -> false);
  test "result refuses a missing metric" (rejects false (List.tl (values false)));
  test "result refuses an unknown metric" (rejects false (("bogus", 1.0) :: values false));
  test "result refuses a duplicate metric" (rejects false (List.hd (values false) :: values false));
  test "result refuses a non-finite value"
    (rejects false (("setup_s", nan) :: List.tl (values false)));
  test "result refuses per-layer metrics on an untraced run" (rejects false (values true));
  test "every why is one line of at most 200 characters"
    (match Metrics.describe ~workloads with
    | Json.Obj fields -> (
      match List.assoc "workloads" fields with
      | Json.List ws ->
        List.length ws = 4
        && List.for_all
             (function
               | Json.Obj [ ("name", _); ("why", Json.String why) ] ->
                 String.length why <= 200 && not (String.contains why '\n')
               | _ -> false)
             ws
      | _ -> false)
    | _ -> false);
  let committed = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  test "BENCHMARK.json is what --describe prints"
    (String.trim committed = Json.to_string (Metrics.describe ~workloads))

let () =
  if !failures > 0 then begin
    Printf.printf "%d perfbench test(s) failed\n" !failures;
    exit 1
  end
