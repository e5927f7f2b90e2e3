(* The benchmark's metric catalogue: the single source of every name, unit,
   direction and bound.  BENCHMARK.json is rendered from these tables
   ([--describe]), and a run's result line is checked against them, so the
   descriptor and the output cannot drift apart. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better; bound : float option }

let e2e name unit better bound = { name; unit; better; bound = Some bound }

let layer name unit better = { name; unit; better; bound = None }

(* End-to-end metrics, reported by every untraced run of every workload.
   Each is defined for all four workloads (see perfbench/README.md), and none
   can read 0 on a healthy run.  Timings get the widest bound the benchmark
   allows, because the host's speed drifts by that much from one minute to
   the next; figures that repeat exactly get tight ones.  Bounds are binary
   fractions so that BENCHMARK.json prints them exactly. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "latency_p50_ms" "ms" Lower 0.25;
    e2e "latency_p95_ms" "ms" Lower 0.25;
    e2e "throughput_ops_s" "1/s" Higher 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.1875;
    e2e "ok_share" "fraction" Higher 0.015625;
    e2e "within_limit_share" "fraction" Higher 0.0625;
    e2e "neg_log10_success_mean" "decades" Lower 0.03125;
    e2e "schedule_depth_mean" "steps" Lower 0.03125;
    e2e "native_gates_mean" "gates" Lower 0.03125;
  ]

(* Per-layer metrics, reported by every traced run.  A layer the workload
   never calls reads 0.  [.ms]/[.us] are mean self time per call; [.share] is
   self time over the traced ops' total time. *)
let per_layer =
  [
    layer "pass.place.ms" "ms" Lower;
    layer "pass.place.share" "fraction" Lower;
    layer "pass.route.ms" "ms" Lower;
    layer "pass.decompose.ms" "ms" Lower;
    layer "pass.optimize.ms" "ms" Lower;
    layer "pass.schedule.ms" "ms" Lower;
    layer "pass.schedule.share" "fraction" Lower;
    layer "pass.route_schedule.ms" "ms" Lower;
    layer "pass.evaluate.ms" "ms" Lower;
    layer "pass.evaluate.share" "fraction" Lower;
    layer "schedule.check.ms" "ms" Lower;
    layer "device.create.ms" "ms" Lower;
    layer "benchmarks.circuit.ms" "ms" Lower;
    layer "smt.probes_per_op" "probes" Lower;
    layer "freq_alloc.hit_ratio" "fraction" Higher;
    layer "freq_alloc.warm_hit_ratio" "fraction" Higher;
    layer "crosstalk.pair_hit_ratio" "fraction" Higher;
    layer "mapping.swaps_per_op" "swaps" Lower;
    layer "gc.minor_words_per_op" "words" Lower;
    layer "gc.major_words_per_op" "words" Lower;
    layer "protocol.parse_request.us" "us" Lower;
    layer "protocol.realize.ms" "ms" Lower;
    layer "ladder.compile.ms" "ms" Lower;
    layer "protocol.response_line.us" "us" Lower;
    layer "server.wait_ms.p50" "ms" Lower;
    layer "server.wait_ms.p99" "ms" Lower;
    layer "serve.latency_p99_ms" "ms" Lower;
    layer "serve.wall_latency_p50_ms" "ms" Lower;
    layer "serve.wall_latency_p99_ms" "ms" Lower;
    layer "ladder.tier.full.share" "fraction" Higher;
    layer "ladder.tier.decomposed-warm.share" "fraction" Lower;
    layer "ladder.tier.stale.share" "fraction" Lower;
    layer "ladder.tier.greedy.share" "fraction" Lower;
    layer "ladder.retries_mean" "retries" Lower;
    layer "ladder.expired_ms_share" "fraction" Lower;
    layer "ladder.stale_hit_ratio" "fraction" Higher;
    layer "loadgen.lag_ms.max" "ms" Lower;
    layer "schedule.to_noisy_steps.ms" "ms" Lower;
    layer "noisy_sim.ideal_of_steps.ms" "ms" Lower;
    layer "noisy_sim.average_fidelity.ms" "ms" Lower;
    layer "noisy_sim.trial_us" "us" Lower;
    layer "density.run_steps.ms" "ms" Lower;
    layer "validate.heuristic_gap_decades" "decades" Lower;
    layer "host.canary_us" "us" Lower;
    layer "host.canary_drift" "fraction" Lower;
    layer "trace.overhead_share" "fraction" Lower;
    layer "trace.unattributed_share" "fraction" Lower;
  ]

let better_name = function Lower -> "lower" | Higher -> "higher"

let find ~trace name =
  List.find_opt (fun m -> m.name = name) (if trace then per_layer else end_to_end)

(* The result line.  Raises [Invalid_argument] unless [values] names every
   metric of the run's kind exactly once and nothing else: a run that cannot
   produce a metric fails rather than printing a partial result. *)
let result_json ~trace ~correct ~attempted ~failed values =
  let expected = if trace then per_layer else end_to_end in
  let names = List.map fst values in
  List.iter
    (fun n ->
      if find ~trace n = None then invalid_arg ("Metrics.result_json: unknown metric " ^ n))
    names;
  List.iter
    (fun m ->
      match List.filter (( = ) m.name) names with
      | [ _ ] -> ()
      | [] -> invalid_arg ("Metrics.result_json: missing metric " ^ m.name)
      | _ -> invalid_arg ("Metrics.result_json: duplicate metric " ^ m.name))
    expected;
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               let v = List.assoc m.name values in
               if not (Float.is_finite v) then
                 invalid_arg (Printf.sprintf "Metrics.result_json: %s is %f" m.name v);
               (m.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.unit) ]))
             expected) );
    ]

(* -- the descriptor ---------------------------------------------------------- *)

let run_seconds = 20

(* A second seed, never used while the benchmark or a change is tuned, on
   which later claims are re-checked.  The descriptor's keys are fixed, so
   every workload's [why] names it. *)
let held_out_seed = 7919

let describe ~workloads =
  let metric m =
    Json.Obj
      ([
         ("name", Json.String m.name);
         ("unit", Json.String m.unit);
         ("better", Json.String (better_name m.better));
       ]
      @ match m.bound with Some b -> [ ("bound", Json.Float b) ] | None -> [])
  in
  Json.Obj
    [
      ("command", Json.List [ Json.String "sh"; Json.String "perfbench/run.sh" ]);
      ("paths", Json.List [ Json.String "perfbench" ]);
      ("run_seconds", Json.Int run_seconds);
      ( "workloads",
        Json.List
          (List.map
             (fun (name, why) ->
               let why = Printf.sprintf "%s; held-out seed %d" why held_out_seed in
               Json.Obj [ ("name", Json.String name); ("why", Json.String why) ])
             workloads) );
      ("end_to_end", Json.List (List.map metric end_to_end));
      ("per_layer", Json.List (List.map metric per_layer));
    ]
