(* fastsc — command-line front end of the crosstalk-mitigation compiler.

   Subcommands:
     fastsc device    ... inspect a fabricated device and its frequency plan
     fastsc compile   ... compile one benchmark (or a QASM file) with one algorithm
     fastsc sweep     ... compare all algorithms on one benchmark
     fastsc validate  ... check the success heuristic against noisy simulation
     fastsc qasm      ... emit a benchmark circuit as OpenQASM 2.0
     fastsc calibrate ... produce the device's frequency calibration tables
     fastsc budget    ... per-step error budget of a compiled benchmark
     fastsc serve     ... long-running JSONL compile daemon
     fastsc list      ... enumerate benchmarks, algorithms, topologies *)

open Cmdliner
module Protocol = Fastsc_serve.Protocol

(* shared options *)
let seed_arg =
  Arg.(value & opt int 2020 & info [ "seed" ] ~docv:"SEED" ~doc:"Device fabrication seed.")

let size_arg =
  Arg.(value & opt int 9 & info [ "n"; "size" ] ~docv:"N" ~doc:"Number of qubits.")

let topology_arg =
  Arg.(
    value
    & opt string "grid"
    & info [ "topology" ] ~docv:"TOPO" ~doc:"Device topology: grid, path, ring, 1ex:k, 2ex:k, complete.")

let bench_arg =
  Arg.(
    value
    & opt string "bv"
    & info [ "bench" ] ~docv:"BENCH"
        ~doc:("Benchmark: " ^ String.concat ", " Protocol.benchmark_names ^ "."))

(* The algorithm list in --help comes from Pass's scheduler table, with
   the aliases each entry accepts. *)
let algorithm_doc =
  let describe (s : Pass.scheduler) =
    match s.aliases with
    | [] -> s.name
    | aliases -> s.name ^ "/" ^ String.concat "/" aliases
  in
  let runnable =
    List.filter (fun (s : Pass.scheduler) -> Compile.algorithm_of_string s.name <> None)
      Pass.schedulers
  in
  "Algorithm: " ^ String.concat ", " (List.map describe runnable) ^ "."

let algorithm_arg =
  Arg.(
    value
    & opt string "cd"
    & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc:algorithm_doc)

(* Algorithm names come from Pass's scheduler table; reject unknown ones
   with exit code 2 and the list of valid names (tested by the CLI suite). *)
let parse_algorithm alg =
  match Compile.algorithm_of_string alg with
  | Some algorithm -> algorithm
  | None ->
    Printf.eprintf "fastsc: unknown algorithm %S (valid: %s)\n%!" alg
      (String.concat " " (List.map Compile.algorithm_to_string Compile.extended_algorithms));
    exit 2

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel work (default: cores - 1, overridable by \
           $(b,FASTSC_JOBS)). Output is byte-identical at any job count.")

let apply_jobs = function
  | None -> `Ok ()
  | Some j when j >= 1 ->
    Pool.set_default_jobs j;
    `Ok ()
  | Some _ -> `Error (false, "--jobs needs a positive integer")

(* Topologies and benchmarks are named as in the serve protocol; its
   [Bad_request], raised by either lookup inside [k] too, is a usage error. *)
let with_device topology_spec n seed k =
  match k (Device.create ~seed (Protocol.parse_topology topology_spec n)) with
  | result -> result
  | exception Protocol.Bad_request msg -> `Error (false, msg)

let print_metrics metrics =
  let t = Tablefmt.create [ "metric"; "value" ] in
  Tablefmt.add_row t [ "success probability"; Tablefmt.cell_sci metrics.Schedule.success ];
  Tablefmt.add_row t
    [ "log10 success"; Tablefmt.cell_float ~digits:2 metrics.Schedule.log10_success ];
  Tablefmt.add_row t [ "gate error"; Tablefmt.cell_sci metrics.Schedule.gate_error ];
  Tablefmt.add_row t [ "crosstalk error"; Tablefmt.cell_sci metrics.Schedule.crosstalk_error ];
  Tablefmt.add_row t
    [ "decoherence error"; Tablefmt.cell_sci metrics.Schedule.decoherence_error ];
  Tablefmt.add_row t [ "depth (steps)"; Tablefmt.cell_int metrics.Schedule.depth ];
  Tablefmt.add_row t
    [ "total time (ns)"; Tablefmt.cell_float ~digits:1 metrics.Schedule.total_time ];
  Tablefmt.add_row t [ "gates"; Tablefmt.cell_int metrics.Schedule.n_gates ];
  Tablefmt.add_row t [ "two-qubit gates"; Tablefmt.cell_int metrics.Schedule.n_two_qubit ];
  Tablefmt.print t

(* fastsc device *)
let device_cmd =
  let run topology_spec n seed =
    with_device topology_spec n seed (fun device ->
        Format.printf "%a@." Device.pp_summary device;
        let partition = Device.partition device in
        Format.printf "frequency plan: %a@." Partition.pp partition;
        let coloring, assignment = Freq_alloc.idle device in
        Printf.printf "idle coloring: %d colors, separation %.3f GHz\n"
          (Coloring.n_colors coloring) assignment.Freq_alloc.delta;
        let t = Tablefmt.create [ "qubit"; "omega_min"; "omega_max"; "T1 (us)"; "T2 (us)"; "idle (GHz)" ] in
        for q = 0 to Device.n_qubits device - 1 do
          let lo, hi = Device.tunable_range device q in
          Tablefmt.add_row t
            [
              Tablefmt.cell_int q;
              Tablefmt.cell_float ~digits:3 lo;
              Tablefmt.cell_float ~digits:3 hi;
              Tablefmt.cell_float ~digits:1 (Device.t1 device q /. 1000.0);
              Tablefmt.cell_float ~digits:1 (Device.t2 device q /. 1000.0);
              Tablefmt.cell_float ~digits:3 assignment.Freq_alloc.freqs.(coloring.(q));
            ]
        done;
        Tablefmt.print t;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "device" ~doc:"Fabricate and inspect a device")
    Term.(ret (const run $ topology_arg $ size_arg $ seed_arg))

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

(* fastsc compile *)
let compile_cmd =
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every schedule step.")
  in
  let input_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "input"; "i" ] ~docv:"FILE"
          ~doc:"Compile an OpenQASM 2.0 circuit from FILE instead of a built-in benchmark.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the full compilation artifact (schedule, metrics, pulses) as JSON.")
  in
  let draw_arg =
    Arg.(value & flag & info [ "draw" ] ~doc:"Draw the routed native circuit as ASCII.")
  in
  let chart_arg =
    Arg.(
      value & flag
      & info [ "chart" ] ~doc:"Print the schedule's frequency chart (qubits x steps).")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Emit the pass-manager report as JSON instead of the human-readable output: \
             per-pass wall-clock, SMT solve counts, solver/pair cache deltas, scheduler \
             statistics (including per-moment crosstalk component counts and warm-start \
             hits), and the evaluation metrics.")
  in
  let warm_start_arg =
    Arg.(
      value & flag
      & info [ "warm-start" ]
          ~doc:
            "Seed each moment's frequency solve with the previous moment's witness \
             (ColorDynamic family).  Witnesses may differ from the cold path within the \
             solver tolerance.")
  in
  let decompose_arg =
    Arg.(
      value & flag
      & info [ "decompose" ]
          ~doc:
            "Allocate each connected component of a moment's active crosstalk subgraph \
             independently, one after another in component order.")
  in
  let run topology_spec n seed bench alg verbose json draw chart trace warm_start decompose
      input jobs =
    match apply_jobs jobs with
    | `Error _ as e -> e
    | `Ok () ->
      let algorithm = parse_algorithm alg in
      let options =
        { Pass.default_options with Pass.warm_start; decompose_components = decompose }
      in
      let external_circuit =
        match input with
        | None -> Ok None
        | Some path -> (
          try Ok (Some (Qasm.of_string (read_file path))) with
          | Qasm.Parse_error (line, msg) ->
            Error (Printf.sprintf "%s:%d: %s" path line msg)
          | Sys_error msg -> Error msg)
      in
      match external_circuit with
      | Error msg -> `Error (false, msg)
      | Ok external_circuit ->
        let n =
          match external_circuit with Some c -> max n (Circuit.n_qubits c) | None -> n
        in
        with_device topology_spec n seed (fun device ->
            let circuit =
              match external_circuit with
              | Some c -> c
              | None -> Protocol.make_benchmark bench n seed device
            in
            if trace then begin
              let ctx =
                Pass.execute ~options ~algorithm:(Compile.algorithm_to_string algorithm)
                  device circuit
              in
              (match Schedule.check (Pass.Context.schedule_exn ctx) with
              | Ok () -> ()
              | Error msg -> failwith ("invalid schedule: " ^ msg));
              print_endline (Json.to_string (Pass.Context.report ctx));
              `Ok ()
            end
            else begin
              let schedule = Compile.run ~options algorithm device circuit in
              (match Schedule.check schedule with
              | Ok () -> ()
              | Error msg -> failwith ("invalid schedule: " ^ msg));
              if json then print_endline (Export.to_string (Export.bundle schedule))
              else begin
                Format.printf "%a@." Device.pp_summary device;
                Format.printf "%a@." Schedule.pp_summary schedule;
                print_metrics (Schedule.evaluate schedule);
                if draw then begin
                  let native = Compile.prepare Pass.default_options device circuit in
                  print_endline (Draw.circuit native)
                end;
                if chart then print_endline (Freq_chart.render schedule);
                if verbose then
                  List.iter
                    (fun step -> Format.printf "%a@." (Schedule.pp_step device) step)
                    schedule.Schedule.steps
              end;
              `Ok ()
            end)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile one benchmark (or a QASM file) with one algorithm")
    Term.(
      ret
        (const run $ topology_arg $ size_arg $ seed_arg $ bench_arg $ algorithm_arg
       $ verbose_arg $ json_arg $ draw_arg $ chart_arg $ trace_arg $ warm_start_arg
       $ decompose_arg $ input_arg $ jobs_arg))

(* fastsc qasm *)
let qasm_cmd =
  let native_arg =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:"Emit the routed, decomposed physical circuit instead of the logical one.")
  in
  let run topology_spec n seed bench native =
    with_device topology_spec n seed (fun device ->
        let circuit = Protocol.make_benchmark bench n seed device in
        let circuit =
          if native then Compile.prepare Pass.default_options device circuit else circuit
        in
        print_string (Qasm.to_string circuit);
        `Ok ())
  in
  Cmd.v
    (Cmd.info "qasm" ~doc:"Emit a benchmark circuit as OpenQASM 2.0")
    Term.(ret (const run $ topology_arg $ size_arg $ seed_arg $ bench_arg $ native_arg))

(* fastsc sweep *)
let sweep_cmd =
  let run topology_spec n seed bench jobs =
    match apply_jobs jobs with
    | `Error _ as e -> e
    | `Ok () ->
      with_device topology_spec n seed (fun device ->
          let circuit = Protocol.make_benchmark bench n seed device in
          let t =
            Tablefmt.create
              [ "algorithm"; "log10 P"; "crosstalk"; "decoherence"; "depth"; "time (ns)" ]
          in
          (* one pool cell per algorithm; rows print in algorithm order *)
          let rows =
            Pool.map
              (fun algorithm ->
                let schedule = Compile.run algorithm device circuit in
                let m = Schedule.evaluate schedule in
                [
                  Compile.algorithm_to_string algorithm;
                  Tablefmt.cell_float ~digits:2 m.Schedule.log10_success;
                  Tablefmt.cell_sci ~digits:2 m.Schedule.crosstalk_error;
                  Tablefmt.cell_sci ~digits:2 m.Schedule.decoherence_error;
                  Tablefmt.cell_int m.Schedule.depth;
                  Tablefmt.cell_float ~digits:0 m.Schedule.total_time;
                ])
              Compile.all_algorithms
          in
          List.iter (Tablefmt.add_row t) rows;
          Tablefmt.print t;
          `Ok ())
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Compare all algorithms on one benchmark")
    Term.(ret (const run $ topology_arg $ size_arg $ seed_arg $ bench_arg $ jobs_arg))

(* fastsc validate *)
let validate_cmd =
  let trials_arg =
    Arg.(value & opt int 300 & info [ "trials" ] ~docv:"K" ~doc:"Monte-Carlo trajectories.")
  in
  let run topology_spec n seed bench alg trials =
    let algorithm = parse_algorithm alg in
    if n > 10 then `Error (false, "validation simulates exactly; use -n/--size <= 10")
    else if trials <= 0 then `Error (false, "--trials needs a positive integer")
    else
      with_device topology_spec n seed (fun device ->
          let circuit = Protocol.make_benchmark bench n seed device in
          let schedule = Compile.run algorithm device circuit in
          let metrics = Schedule.evaluate schedule in
          let steps = Schedule.to_noisy_steps schedule in
          let n_qubits = Device.n_qubits device in
          let ideal = Noisy_sim.ideal_of_steps ~n_qubits steps in
          let simulated =
            Noisy_sim.average_fidelity (Rng.create (seed + 1)) ~n_qubits ~ideal ~steps ~trials
          in
          Printf.printf "heuristic success (eq 4): %.3e\n" metrics.Schedule.success;
          Printf.printf "simulated success (%d trajectories): %.3e\n" trials simulated;
          `Ok ())
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Heuristic vs Monte-Carlo noisy simulation")
    Term.(
      ret (const run $ topology_arg $ size_arg $ seed_arg $ bench_arg $ algorithm_arg $ trials_arg))

(* fastsc budget *)
let budget_cmd =
  let run topology_spec n seed bench alg =
    let algorithm = parse_algorithm alg in
    with_device topology_spec n seed (fun device ->
        let circuit = Protocol.make_benchmark bench n seed device in
        let schedule = Compile.run algorithm device circuit in
        Format.printf "%a@." Error_budget.pp (Error_budget.compute schedule);
        `Ok ())
  in
  Cmd.v
    (Cmd.info "budget" ~doc:"Per-step error budget of a compiled benchmark")
    Term.(ret (const run $ topology_arg $ size_arg $ seed_arg $ bench_arg $ algorithm_arg))

(* fastsc calibrate *)
let calibrate_cmd =
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the calibration as JSON.") in
  let run topology_spec n seed json =
    with_device topology_spec n seed (fun device ->
        let cal = Calibration.generate device in
        (match Calibration.check cal with
        | Ok () -> ()
        | Error msg -> failwith ("invalid calibration: " ^ msg));
        if json then print_endline (Export.to_string (Calibration.to_json cal))
        else Format.printf "%a@." Calibration.pp cal;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "calibrate" ~doc:"Produce the device's frequency calibration tables")
    Term.(ret (const run $ topology_arg $ size_arg $ seed_arg $ json_arg))

(* fastsc serve *)
let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv) instead of stdin/stdout.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request compile budget in milliseconds; requests may override \
             with their own $(b,deadline_ms). Expired budgets degrade down the ladder \
             (full, decomposed-warm, stale, greedy) instead of failing.")
  in
  let max_inflight_arg =
    Arg.(
      value
      & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission-control bound: requests beyond $(docv) in flight are shed with a \
             structured $(b,overloaded) error.")
  in
  let stats_every_arg =
    Arg.(
      value
      & opt int 0
      & info [ "stats-every" ] ~docv:"N"
          ~doc:
            "Print an operational stats line to stderr every $(docv) completed requests \
             — solver-cache hit rate and per-tier latency p50/p95 (0: disabled).")
  in
  let drain_grace_arg =
    Arg.(
      value
      & opt float 2000.0
      & info [ "drain-grace-ms" ] ~docv:"MS"
          ~doc:"How long SIGTERM/SIGINT waits for in-flight requests before exiting.")
  in
  let scrub_arg =
    Arg.(
      value
      & flag
      & info [ "scrub" ]
          ~doc:
            "Zero latency fields in responses so output is byte-deterministic across \
             job counts.")
  in
  let run jobs socket deadline_ms max_inflight stats_every drain_grace_ms scrub =
    match apply_jobs jobs with
    | `Error _ as e -> e
    | `Ok () ->
      if max_inflight < 1 then `Error (false, "--max-inflight needs a positive integer")
      else if stats_every < 0 then
        `Error (false, "--stats-every needs a non-negative integer")
      else if not (Float.is_finite drain_grace_ms && drain_grace_ms >= 0.0) then
        `Error (false, "--drain-grace-ms needs a non-negative number")
      else if
        match deadline_ms with
        | Some d -> not (Float.is_finite d && d >= 0.0)
        | None -> false
      then `Error (false, "--deadline-ms needs a non-negative number")
      else begin
        Fastsc_serve.Server.run
          {
            Fastsc_serve.Server.socket;
            deadline_ms;
            max_inflight;
            stats_every;
            drain_grace_ms;
            scrub;
          };
        `Ok ()
      end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running JSONL compile daemon with deadline-budgeted degradation")
    Term.(
      ret
        (const run $ jobs_arg $ socket_arg $ deadline_arg $ max_inflight_arg
       $ stats_every_arg $ drain_grace_arg $ scrub_arg))

(* fastsc list *)
let list_cmd =
  let run () =
    print_endline ("benchmarks: " ^ String.concat " " Protocol.benchmark_names);
    print_endline
      ("algorithms: "
      ^ String.concat " "
          (List.map Compile.algorithm_to_string Compile.extended_algorithms));
    print_endline "topologies: grid path ring complete 1ex:<k> 2ex:<k>";
    `Ok ()
  in
  Cmd.v (Cmd.info "list" ~doc:"Enumerate benchmarks, algorithms, topologies")
    Term.(ret (const run $ const ()))

let () =
  let info =
    Cmd.info "fastsc" ~version:"1.0.0"
      ~doc:"Frequency-aware crosstalk-mitigating compilation for superconducting qubits"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            device_cmd; compile_cmd; sweep_cmd; validate_cmd; qasm_cmd; calibrate_cmd;
            budget_cmd; serve_cmd; list_cmd;
          ]))
