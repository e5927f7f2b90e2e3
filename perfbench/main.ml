(* perfbench: the end-to-end and per-layer benchmark of the compiler, the
   serve daemon and the simulator.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --describe        print BENCHMARK.json

   Every run executes a fixed, seeded op list (never a time box).  An
   untraced run (--trace 0) prints the end-to-end metrics; a traced run
   (--trace 1) repeats the untraced run, then runs the same ops again with
   spans around each call into a layer, and prints the per-layer metrics,
   the self-time table and a Chrome trace.  The last stdout line is the
   result object; the exit code is non-zero when any output check fails.
   Closed loops time ops and set-ups in CPU time; serve-replay times the
   daemon's service in its CPU time, queued from each request's due time
   (its set-up stays on the wall clock).  Either way end-to-end timings are
   scaled by the host-speed canary (canary.ml) to what they would read on
   the reference host, and stderr shows them as measured. *)

open Perfbench

let t_process = Deadline.now_s ()

let now = Deadline.now_s

(* CPU seconds this process has used (user and system, all domains).  The
   hypervisor of a shared VM can take a busy core away for milliseconds at
   a time (a quarter of a busy core's time in one 17-s run on the 2-core VM
   the benchmark was tuned on); wall-clock time counts those stalls, CPU
   time does not. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Set-ups per untraced run: the run's own, then the others each in a fresh
   process.  setup_s is their median. *)
let setup_repeats = 5

(* Canary samples per timed phase, spread evenly over its ops (on serve,
   fewer when the daemon is busy: a sample is taken only in a gap where
   nothing is outstanding and the next request is not yet due). *)
let canary_samples = 200

(* A run whose canary reads this much faster or slower at the end of its
   timed phase than at the start straddled a change of host speed.  The
   canary's own 30-sample medians moved by up to 16% within a second on an
   idle host, so only a larger change is flagged. *)
let drift_limit = 0.25

let workloads =
  List.map (fun (w : Workloads.workload) -> (w.name, w.why)) Workloads.closed
  @ [ ("serve-replay", Serve_replay.why) ]

let ms s = s *. 1000.0

let quality programs =
  let ps = Array.of_list programs in
  let avg f = Measure.mean (Array.map f ps) in
  [
    ("neg_log10_success_mean", avg (fun p -> -.p.Workloads.log10_success));
    ("schedule_depth_mean", avg (fun p -> float_of_int p.Workloads.depth));
    ("native_gates_mean", avg (fun p -> float_of_int p.Workloads.n_gates));
  ]

(* The end-to-end metrics both loop kinds share, scaled by the host-speed
   canary to read as on the reference host.  The op that started at
   [starts.(i)] (its due time, on an open loop) and took [latencies.(i)]
   (CPU time on a closed loop; on the open loop, the daemon's CPU time
   queued from the due time) is scaled by the canary's local speed factor
   at its start; set-up times by the run's factor.  A closed loop's
   throughput is divided by the ops' time-weighted mean factor; an open
   loop's is its fixed rate unless the server falls behind, and is left as
   measured.  [ok.(i)] says whether the op passed
   every check; [within_limit_share] counts those whose scaled time is at
   most [limit_ms]. *)
let end_to_end ~canary ~open_loop ~setup_times ~starts ~latencies ~ok ~limit_ms ~throughput
    ~rss_mb ~attempted ~failed ~programs =
  let local = Canary.local_factors canary starts in
  let scaled = Array.mapi (fun i l -> l *. local.(i)) latencies in
  let pct p samples = ms (Measure.percentile ~name:"latency" ~pct:p samples) in
  let sum = Array.fold_left ( +. ) 0.0 in
  let setup_s = Measure.median_of setup_times in
  Printf.eprintf "  as measured: setup %.3f s (set-ups %s), p50 %.3f ms, p95 %.3f ms, %.2f ops/s\n%!"
    setup_s
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times))
    (pct 50 latencies) (pct 95 latencies) throughput;
  let within = ref 0 in
  Array.iteri (fun i l -> if ok.(i) && ms l <= limit_ms then incr within) scaled;
  [
    ("setup_s", setup_s *. Canary.speed_factor canary);
    ("latency_p50_ms", pct 50 scaled);
    ("latency_p95_ms", pct 95 scaled);
    ( "throughput_ops_s",
      if open_loop then throughput else throughput *. sum latencies /. sum scaled );
    ("peak_rss_mb", rss_mb);
    ("ok_share", Measure.ratio (attempted - failed) attempted);
    ("within_limit_share", Measure.ratio !within attempted);
  ]
  @ quality programs

(* The canary's reading of one timed phase, on stderr with a warning when
   the host changed speed during it; returns the per-layer figures. *)
let host_speed ~workload canary =
  let speed = Canary.speed_factor canary and drift = Canary.drift canary in
  Printf.eprintf
    "%s: canary %.3f ms (median), %+.1f%% from the start to the end of the timed phase, speed \
     factor %.3f%s\n%!"
    workload
    (ms (Canary.reference_s /. speed))
    (100.0 *. drift) speed
    (if Float.abs drift > drift_limit then "; the host changed speed during this run: rerun it"
     else "");
  [
    ("host.canary_us", 1e6 *. Canary.reference_s /. speed);
    ("host.canary_drift", Float.abs drift);
  ]

(* Per-layer values start at 0 (layer not exercised) and are overwritten by
   what the run measured. *)
let per_layer measured =
  List.map
    (fun (m : Metrics.metric) ->
      (m.name, Option.value ~default:0.0 (List.assoc_opt m.name measured)))
    Metrics.per_layer

let trace_figures tr =
  let mean_ms name = ms (Trace.mean_self tr name) in
  let spans =
    [
      "pass.place"; "pass.route"; "pass.decompose"; "pass.optimize"; "pass.schedule";
      "pass.route_schedule"; "pass.evaluate"; "schedule.check"; "device.create";
      "benchmarks.circuit"; "protocol.realize"; "ladder.compile"; "schedule.to_noisy_steps";
      "noisy_sim.ideal_of_steps"; "noisy_sim.average_fidelity"; "density.run_steps";
    ]
  in
  List.map (fun s -> (s ^ ".ms", mean_ms s)) spans
  @ List.map
      (fun s -> (s ^ ".share", Trace.share tr s))
      [ "pass.place"; "pass.schedule"; "pass.evaluate" ]
  @ [
      ("protocol.parse_request.us", 1e6 *. Trace.mean_self tr "protocol.parse_request");
      ("protocol.response_line.us", 1e6 *. Trace.mean_self tr "protocol.response_line");
      ( "noisy_sim.trial_us",
        1e6 *. Trace.mean_self tr "noisy_sim.average_fidelity" /. float_of_int Workloads.sim_trials );
      ("trace.unattributed_share", Trace.share tr "op");
    ]

let out_dir = Filename.concat "perfbench" "out"

let export_trace ~workload ~seed tr =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
  Trace.write_chrome tr path;
  Trace.print_table ~workload tr;
  Printf.printf "chrome trace: %s\n" path

(* -- closed loops ------------------------------------------------------------ *)

type phase = {
  results : Workloads.program option array;
  starts : float array;  (** Wall clock at each op's start. *)
  latencies : float array;  (** Each op's wall-clock time. *)
  cpu_times : float array;  (** Each op's CPU time. *)
  errors : (int * string) list;
  wall_s : float;
  cpu_s : float;
  before : Workloads.counters;
  after : Workloads.counters;
}

(* Run every op of [p], traced or not.  With a [canary], samples are taken
   between ops, [canary_samples] of them spread evenly; their time counts in
   neither the ops' times nor the phase's.  The sampling points depend only
   on the op count, so the phase's GC counts repeat. *)
let run_phase ?canary tr (p : Workloads.prepared) =
  let n = p.n_ops in
  let results = Array.make n None in
  let starts = Array.make n 0.0 and latencies = Array.make n 0.0 in
  let cpu_times = Array.make n 0.0 in
  let errors = ref [] in
  let stride = max 1 (n / canary_samples) in
  let paused = ref 0.0 and paused_cpu = ref 0.0 in
  let before = Workloads.counters () in
  let t0 = now () and u0 = cpu () in
  for i = 0 to n - 1 do
    let c0 = if Option.is_none tr then before else Workloads.counters () in
    let s = now () and su = cpu () in
    let r, root =
      Trace.op_span tr ~label:(if Option.is_none tr then "" else p.label i) i (fun () ->
          try Ok (p.run_op tr i) with e -> Error (Printexc.to_string e))
    in
    starts.(i) <- s;
    latencies.(i) <- now () -. s;
    cpu_times.(i) <- cpu () -. su;
    (match canary with
    | Some c when i mod stride = 0 ->
      let w = now () and u = cpu () in
      Canary.take c;
      paused := !paused +. (now () -. w);
      paused_cpu := !paused_cpu +. (cpu () -. u)
    | _ -> ());
    (match root with
    | Some span -> span.Trace.args <- Workloads.counter_args c0 (Workloads.counters ())
    | None -> ());
    match r with Ok prog -> results.(i) <- Some prog | Error msg -> errors := (i, msg) :: !errors
  done;
  let wall_s = now () -. t0 -. !paused and cpu_s = cpu () -. u0 -. !paused_cpu in
  let after = Workloads.counters () in
  let errors = List.rev !errors @ p.verify results in
  { results; starts; latencies; cpu_times; errors; wall_s; cpu_s; before; after }

(* A set-up's time: from the start of its process to now, on the wall clock
   and in CPU time. *)
type setup_time = { setup_wall : float; setup_cpu : float }

let own_setup () = { setup_wall = now () -. t_process; setup_cpu = cpu () }

(* [k] more set-ups, each in a fresh process running this executable with
   [--setup-only] and the run's arguments; each child reports its own
   set-up time, from its start to the point its first timed op would run. *)
let fresh_setups ~k args =
  List.init k (fun _ ->
      let exe = Sys.executable_name in
      let ic = Unix.open_process_args_in exe (Array.of_list (exe :: "--setup-only" :: args)) in
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some l ->
        Scanf.sscanf l "setup %f %f" (fun setup_wall setup_cpu -> { setup_wall; setup_cpu })
      | _ -> failwith "a fresh set-up process failed")

let print_setup t = Printf.printf "setup %.17g %.17g\n" t.setup_wall t.setup_cpu

let failed_ops errors = List.sort_uniq compare (List.map fst errors)

let report_errors ~workload errors =
  List.iteri
    (fun k (i, msg) -> if k < 20 then Printf.eprintf "%s: op %d failed: %s\n%!" workload i msg)
    errors

let run_closed (w : Workloads.workload) ~args ~setup_only ~seed ~seconds ~trace =
  Pool.set_default_jobs w.jobs;
  let setup tr =
    Workloads.reset_caches ();
    w.setup tr ~seed ~seconds
  in
  let prepared = setup None in
  let own = own_setup () in
  if setup_only then begin
    print_setup own;
    exit 0
  end;
  let setups = own :: (if trace then [] else fresh_setups ~k:(setup_repeats - 1) args) in
  let canary = Canary.create () in
  let u = run_phase ~canary None prepared in
  let n = prepared.n_ops in
  Printf.eprintf
    "%s: %d ops in %.2f s (%.2f CPU s); wall clock: set-up %.3f s, p50 %.3f ms, p95 %.3f ms\n%!"
    w.name n u.wall_s u.cpu_s
    (Measure.median_of (List.map (fun t -> t.setup_wall) setups))
    (ms (Measure.percentile ~name:"latency" ~pct:50 u.latencies))
    (ms (Measure.percentile ~name:"latency" ~pct:95 u.latencies));
  let host = host_speed ~workload:w.name canary in
  let ok_ops = List.filter_map Fun.id (Array.to_list u.results) in
  let failed = List.length (failed_ops u.errors) in
  report_errors ~workload:w.name u.errors;
  if not trace then begin
    let ok = Array.mapi (fun i r -> r <> None && not (List.mem_assoc i u.errors)) u.results in
    let values =
      end_to_end ~canary ~open_loop:false
        ~setup_times:(List.map (fun t -> t.setup_cpu) setups)
        ~starts:u.starts ~latencies:u.cpu_times ~ok ~limit_ms:w.limit_ms
        ~throughput:(float_of_int n /. u.cpu_s)
        ~rss_mb:(Measure.peak_rss_mb ()) ~attempted:n ~failed ~programs:ok_ops
    in
    (failed = 0, n, failed, values)
  end
  else begin
    let tr = Trace.create () in
    let traced_prepared = setup (Some tr) in
    let t = run_phase (Some tr) traced_prepared in
    report_errors ~workload:(w.name ^ " (traced)") t.errors;
    (* the traced run must compute exactly what the untraced one did; at one
       job the SMT and cache counters must repeat too *)
    let mismatches =
      List.filter
        (fun i ->
          match (u.results.(i), t.results.(i)) with
          | Some a, Some b -> not (Workloads.same_program a b)
          | None, None -> false
          | _ -> true)
        (List.init n Fun.id)
    in
    let counts_differ =
      w.jobs = 1 && not (Workloads.same_counts (u.before, u.after) (t.before, t.after))
    in
    if mismatches <> [] then
      Printf.eprintf "%s: %d ops differ between the traced and untraced runs\n%!" w.name
        (List.length mismatches);
    if counts_differ then
      Printf.eprintf "%s: SMT/cache counters differ between the traced and untraced runs\n%!" w.name;
    let failed =
      List.length
        (List.sort_uniq compare (failed_ops u.errors @ failed_ops t.errors @ mismatches))
      + if counts_differ then 1 else 0
    in
    let swaps =
      Measure.mean (Array.of_list (List.map (fun p -> float_of_int p.Workloads.swaps) ok_ops))
    in
    export_trace ~workload:w.name ~seed tr;
    let measured =
      trace_figures tr
      @ Workloads.counter_figures ~ops:n u.before u.after
      @ prepared.figures
      @ host
      @ [
          ("mapping.swaps_per_op", swaps);
          ("trace.overhead_share", (t.cpu_s /. u.cpu_s) -. 1.0);
        ]
    in
    (failed = 0, n, failed, per_layer measured)
  end

(* -- serve-replay ------------------------------------------------------------ *)

(* The daemon runs requests inline at one job, in one thread, in order, so
   its CPU time splits cleanly over the requests.  At two jobs (a pool
   worker answers while the main domain reads) wall-clock readings spread
   twice as wide from run to run on a 2-core host; see perfbench/README.md. *)
let serve_jobs = 1

let run_serve ~exe ~args ~setup_only ~seed ~seconds ~trace =
  let module S = Serve_replay in
  Pool.set_default_jobs serve_jobs;
  if not (Sys.file_exists exe) then failwith ("no daemon executable at " ^ exe);
  let requests = S.stream ~seed ~seconds in
  let n = Array.length requests in
  let d = S.boot ~exe ~jobs:serve_jobs in
  let own = own_setup () in
  if setup_only then begin
    S.shutdown d;
    print_setup own;
    exit 0
  end;
  let canary = Canary.create () in
  let stride = max 1 (n / canary_samples) in
  let setups, r =
    Fun.protect
      ~finally:(fun () -> S.shutdown d)
      (fun () ->
        let setups = own :: (if trace then [] else fresh_setups ~k:(setup_repeats - 1) args) in
        let r = S.replay ~idle:(fun i -> if i mod stride = 0 then Canary.take canary) d requests in
        Canary.top_up canary Canary.window;
        (setups, r))
  in
  Printf.eprintf
    "serve-replay: %d requests over %.2f s, generator lag at most %.2f ms, %d canary samples\n%!"
    n r.S.span_s (ms r.S.lag_max_s) (Canary.count canary);
  let host = host_speed ~workload:"serve-replay" canary in
  let errors =
    List.filter_map
      (fun i -> match r.S.outcomes.(i).S.answer with Error msg -> Some (i, msg) | Ok _ -> None)
      (List.init n Fun.id)
  in
  let failed = List.length errors in
  report_errors ~workload:"serve-replay" errors;
  let answered =
    List.filter_map
      (fun o ->
        match (o.S.latency_s, o.S.answer) with Some l, Ok a -> Some (l, a) | _ -> None)
      (Array.to_list r.S.outcomes)
  in
  (* the requests that got exactly one response: due time, CPU-time queue
     latency, wall-clock latency and whether they passed the checks *)
  let queued = Measure.queue_latencies ~rate:S.rate r.S.service_s in
  let timed =
    List.filter_map
      (fun i ->
        let o = r.S.outcomes.(i) in
        Option.map
          (fun wall ->
            (r.S.start +. Measure.due_time ~rate:S.rate i, queued.(i), wall, Result.is_ok o.S.answer))
          o.S.latency_s)
      (List.init n Fun.id)
  in
  let starts = Array.of_list (List.map (fun (d, _, _, _) -> d) timed) in
  let latencies = Array.of_list (List.map (fun (_, l, _, _) -> l) timed) in
  let wall = Array.of_list (List.map (fun (_, _, w, _) -> w) timed) in
  let wall_pct p = ms (Measure.percentile ~name:"wall-clock latency" ~pct:p wall) in
  Printf.eprintf "  wall clock from the due time: p50 %.3f ms, p95 %.3f ms\n%!" (wall_pct 50)
    (wall_pct 95);
  let programs = List.filter_map (fun (_, a) -> a.S.program) answered in
  if not trace then begin
    let values =
      end_to_end ~canary ~open_loop:true
        ~setup_times:(List.map (fun t -> t.setup_wall) setups)
        ~starts ~latencies
        ~ok:(Array.of_list (List.map (fun (_, _, _, ok) -> ok) timed))
        ~limit_ms:S.limit_ms
        ~throughput:(float_of_int (List.length answered) /. r.S.span_s)
        ~rss_mb:r.S.rss_mb ~attempted:n ~failed ~programs
    in
    (failed = 0, n, failed, values)
  end
  else begin
    let waits =
      Array.of_list (List.map (fun (l, a) -> ms l -. a.S.latency_ms) answered)
    in
    let count_tier t = List.length (List.filter (fun (_, a) -> a.S.tier = t) answered) in
    let share t = Measure.ratio (count_tier t) n in
    let attempts = List.concat_map (fun (_, a) -> a.S.attempts) answered in
    let stale = List.filter (fun (t, _, _) -> t = "stale") attempts in
    let stale_hits = List.length (List.filter (fun (_, _, out) -> out = "hit") stale) in
    let expired_ms =
      List.fold_left (fun acc (_, m, out) -> if out = "expired" then acc +. m else acc) 0.0 attempts
    in
    let served_ms = List.fold_left (fun acc (_, a) -> acc +. a.S.latency_ms) 0.0 answered in
    (* in-process: untraced, then traced, each from the same cold state and
       warm-up, with counters and clocks covering only the timed stream *)
    Workloads.reset_caches ();
    S.warm_in_process ();
    let before = Workloads.counters () in
    let t0 = now () in
    let plain = S.in_process None requests in
    let untraced_s = now () -. t0 in
    let after = Workloads.counters () in
    Workloads.reset_caches ();
    S.warm_in_process ();
    let tr = Trace.create () in
    let t1 = now () in
    let traced = S.in_process (Some tr) requests in
    let traced_s = now () -. t1 in
    (* the daemon, the in-process replay and the traced replay must give the
       same answers *)
    let differ = ref 0 in
    Array.iteri
      (fun i line ->
        let daemon =
          match r.S.outcomes.(i).S.answer with Ok a -> Some a.S.scrubbed | Error _ -> None
        in
        if traced.(i) <> line || daemon <> Some (S.decode line).S.scrubbed then incr differ)
      plain;
    if !differ > 0 then
      Printf.eprintf "serve-replay: %d responses differ between daemon, in-process and traced\n%!"
        !differ;
    export_trace ~workload:"serve-replay" ~seed tr;
    let measured =
      trace_figures tr
      @ Workloads.counter_figures ~ops:n before after
      @ host
      @ [
          ("server.wait_ms.p50", Measure.percentile ~name:"server wait" ~pct:50 waits);
          ("server.wait_ms.p99", Measure.percentile ~name:"server wait" ~pct:99 waits);
          ( "serve.latency_p99_ms",
            let local = Canary.local_factors canary starts in
            ms
              (Measure.percentile ~name:"latency" ~pct:99
                 (Array.mapi (fun i l -> l *. local.(i)) latencies)) );
          ("serve.wall_latency_p50_ms", wall_pct 50);
          ("serve.wall_latency_p99_ms", wall_pct 99);
          ("ladder.tier.full.share", share "full");
          ("ladder.tier.decomposed-warm.share", share "decomposed-warm");
          ("ladder.tier.stale.share", share "stale");
          ("ladder.tier.greedy.share", share "greedy");
          ( "ladder.retries_mean",
            Measure.mean (Array.of_list (List.map (fun (_, a) -> float_of_int a.S.retries) answered))
          );
          ("ladder.expired_ms_share", if served_ms > 0.0 then expired_ms /. served_ms else 0.0);
          ("ladder.stale_hit_ratio", Measure.ratio stale_hits (List.length stale));
          ("loadgen.lag_ms.max", ms r.S.lag_max_s);
          ("trace.overhead_share", (traced_s /. untraced_s) -. 1.0);
        ]
    in
    let failed = failed + !differ in
    (failed = 0, n, failed, per_layer measured)
  end

(* -- command line ------------------------------------------------------------ *)

let usage =
  "main.exe --workload W --seed N --seconds S --trace 0|1 [--fastsc PATH] | --describe\n\
   workloads: "
  ^ String.concat ", " (List.map fst workloads)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let describe = ref false and setup_only = ref false in
  let exe = ref (Filename.concat "_build" (Filename.concat "default" "bin/fastsc.exe")) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  workload name");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  run length the op list is sized for");
      ("--trace", Arg.Set_int trace, "0|1  untraced end-to-end run, or traced per-layer run");
      ("--fastsc", Arg.Set_string exe, "PATH  the fastsc executable serve-replay boots");
      ("--describe", Arg.Set describe, " print BENCHMARK.json and exit");
      ( "--canary-helper",
        Arg.Unit
          (fun () ->
            Canary.serve_helper ();
            exit 0),
        " serve host-speed canary samples on stdin/stdout (a run's helper)" );
      ( "--setup-only",
        Arg.Set setup_only,
        " set up, print the set-up time and exit (a run's fresh set-ups)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !describe then print_endline (Json.to_string (Metrics.describe ~workloads))
  else begin
    if not (List.mem_assoc !workload workloads) then begin
      prerr_endline ("unknown or missing --workload\n" ^ usage);
      exit 2
    end;
    if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline ("--seed >= 0, --seconds >= 1 and --trace 0|1 are required\n" ^ usage);
      exit 2
    end;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let args =
      [
        "--workload"; !workload; "--seed"; string_of_int !seed; "--seconds";
        string_of_int !seconds; "--trace"; "0"; "--fastsc"; !exe;
      ]
    in
    let setup_only = !setup_only and trace = !trace = 1 in
    let correct, attempted, failed, values =
      try
        match List.find_opt (fun (w : Workloads.workload) -> w.name = !workload) Workloads.closed with
        | Some w -> run_closed w ~args ~setup_only ~seed:!seed ~seconds:!seconds ~trace
        | None -> run_serve ~exe:!exe ~args ~setup_only ~seed:!seed ~seconds:!seconds ~trace
      with
      | Measure.Too_short msg ->
        prerr_endline ("run too short for its percentile: " ^ msg);
        exit 3
    in
    print_endline
      (Json.to_string ~pretty:false
         (Metrics.result_json ~trace ~correct ~attempted ~failed values));
    if not correct then exit 1
  end
