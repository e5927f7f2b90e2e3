(* Simulation-kernel microbenchmark: the Bigarray state-vector kernels
   against the boxed Statevector_ref baseline, gate-at-a-time replay of a
   brickwork circuit and a lone two-qubit gate on a larger state, Monte-Carlo
   trajectory throughput through the domain pool, and the density
   superoperator loop.  Emits BENCH_sim.json so kernel throughput is tracked
   across commits; tier W of `make verify` gates a pinned run against
   bench/baselines/sim.json.

   Env knobs (all optional; the `make bench-sim` smoke run shrinks them):
     FASTSC_SIM_QUBITS          state size for the flat-vs-boxed kernels (default 16)
     FASTSC_SIM_BIG_QUBITS      state size for the engine rows (default 20)
     FASTSC_SIM_CYCLES          brickwork cycles in the big workload (default 3)
     FASTSC_SIM_TRIALS          trajectory batch size (default 200)
     FASTSC_SIM_TRAJ_QUBITS     trajectory workload size (default 12)
     FASTSC_SIM_DENSITY_QUBITS  density-matrix size (default 8, capped at 10)
     FASTSC_SIM_BUDGET_MS       min measuring time per batch (default 300) *)

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some v when v > 0 -> v
  | _ -> default

(* Seconds per run: grow the batch until one batch fills the measuring
   budget, then time [batches] more batches of that size and take the
   median, so no single noisy batch decides a row. *)
let batches = 5

let time_per_run ~budget f =
  f ();
  let batch reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  let rec grow reps = if batch reps < budget && reps < 1 lsl 20 then grow (reps * 4) else reps in
  let reps = grow 1 in
  let times = Array.init batches (fun _ -> batch reps) in
  Array.sort Float.compare times;
  times.(batches / 2) /. float_of_int reps

let fmt_ns ns =
  if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* Dense test unitaries (every entry exercises both the re and im paths). *)
let u1 =
  let s = 1.0 /. sqrt 2.0 in
  let e t = Complex_ext.scale s (Complex_ext.exp_i t) in
  Matrix.of_arrays [| [| e 0.0; e (-0.7) |]; [| e 0.7; e Float.pi |] |]

let u2 = Noisy_sim.exchange_unitary 0.37

(* The big-section workload: [cycles] brickwork layers — two rotation layers
   (Rz then Ry, angles from a fixed seed) followed by one sqrt-iSWAP layer on
   alternating even/odd neighbour pairings. *)
let brickwork ~n ~cycles =
  let rng = Rng.create 41 in
  let b = Circuit.builder n in
  for cycle = 0 to cycles - 1 do
    for q = 0 to n - 1 do
      Circuit.add b (Gate.Rz (Rng.float rng *. 6.0 +. 0.1)) [ q ]
    done;
    for q = 0 to n - 1 do
      Circuit.add b (Gate.Ry (Rng.float rng *. 6.0 +. 0.1)) [ q ]
    done;
    let first = cycle land 1 in
    let q = ref first in
    while !q + 1 < n do
      Circuit.add b Gate.Sqrt_iswap [ !q; !q + 1 ];
      q := !q + 2
    done
  done;
  Circuit.finish b

let run () =
  Exp_common.heading "Simulation kernels: flat float arrays vs boxed baseline";
  let n = env_int "FASTSC_SIM_QUBITS" 16 in
  let big_n = min 24 (max 2 (env_int "FASTSC_SIM_BIG_QUBITS" 20)) in
  let cycles = env_int "FASTSC_SIM_CYCLES" 3 in
  let trials = env_int "FASTSC_SIM_TRIALS" 200 in
  let traj_n = max 2 (env_int "FASTSC_SIM_TRAJ_QUBITS" 12) in
  let dn = min 10 (env_int "FASTSC_SIM_DENSITY_QUBITS" 8) in
  let budget = float_of_int (env_int "FASTSC_SIM_BUDGET_MS" 300) /. 1000.0 in

  (* Gate kernels: one run = the gate applied once to every qubit (resp.
     every neighbouring pair), so ns/gate divides by the application count. *)
  let flat = Statevector.create n and boxed = Statevector_ref.create n in
  let per_gate1 state apply =
    let run_all () =
      for q = 0 to n - 1 do
        apply state u1 q
      done
    in
    time_per_run ~budget run_all *. 1e9 /. float_of_int n
  in
  let per_gate2 state apply =
    let run_all () =
      for q = 0 to n - 2 do
        apply state u2 q (q + 1)
      done
    in
    time_per_run ~budget run_all *. 1e9 /. float_of_int (n - 1)
  in
  let flat1 = per_gate1 flat Statevector.apply_matrix1 in
  let boxed1 = per_gate1 boxed Statevector_ref.apply_matrix1 in
  let flat2 = per_gate2 flat Statevector.apply_matrix2 in
  let boxed2 = per_gate2 boxed Statevector_ref.apply_matrix2 in
  let speedup1 = boxed1 /. flat1 and speedup2 = boxed2 /. flat2 in

  let t = Tablefmt.create [ "kernel"; "flat"; "boxed"; "speedup" ] in
  Tablefmt.add_row t
    [
      Printf.sprintf "apply_matrix1 (%dq, per gate)" n;
      fmt_ns flat1;
      fmt_ns boxed1;
      Printf.sprintf "%.1fx" speedup1;
    ];
  Tablefmt.add_row t
    [
      Printf.sprintf "apply_matrix2 (%dq, per gate)" n;
      fmt_ns flat2;
      fmt_ns boxed2;
      Printf.sprintf "%.1fx" speedup2;
    ];
  Tablefmt.print t;

  (* The engine rows on the big state: the brickwork circuit gate at a time,
     per source gate, and one 2q gate on the outermost pair. *)
  Exp_common.heading (Printf.sprintf "Engine: %d-qubit brickwork, %d cycles" big_n cycles);
  let circuit = brickwork ~n:big_n ~cycles in
  let total_gates = Circuit.length circuit in
  let state = Statevector.create big_n in
  let big_flat =
    time_per_run ~budget (fun () -> Statevector.run state circuit)
    *. 1e9
    /. float_of_int total_gates
  in
  let lone_serial =
    time_per_run ~budget (fun () -> Statevector.apply_matrix2 state u2 0 (big_n - 1)) *. 1e9
  in
  let t2 = Tablefmt.create [ "engine"; "ns/gate" ] in
  Tablefmt.add_row t2
    [ Printf.sprintf "brickwork, gate at a time (%d gates)" total_gates; fmt_ns big_flat ];
  Tablefmt.add_row t2 [ Printf.sprintf "lone 2q gate on (0, %d)" (big_n - 1); fmt_ns lone_serial ];
  Tablefmt.print t2;

  (* Density superoperator loop: one run = a dense unitary conjugation plus
     an amplitude-damping channel on every qubit of a dn-qubit matrix.
     Timed before the trajectory row, as the gate kernels are, so that it
     never runs beside the idle workers the trajectory fan-out leaves in
     the pool. *)
  let rho = Density.create dn in
  let damping = Density.amplitude_damping ~gamma:0.01 in
  let density_ns =
    time_per_run ~budget (fun () ->
        for q = 0 to dn - 1 do
          Density.apply_unitary1 rho u1 q;
          Density.apply_kraus1 rho damping q
        done)
    *. 1e9
    /. float_of_int dn
  in

  (* Trajectory batch: the validation workload end to end — compile a
     circuit, lower to noisy steps, fan the Monte-Carlo trials over the
     pool. *)
  let device = Exp_common.mesh_device traj_n in
  let circuit = Bv.circuit ~n:traj_n () in
  let schedule = Compile.run Compile.Color_dynamic device circuit in
  let steps = Schedule.to_noisy_steps schedule in
  let traj_qubits = Device.n_qubits device in
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:traj_qubits steps in
  let mean = ref 0.0 in
  let traj_seconds =
    time_per_run ~budget (fun () ->
        mean :=
          Noisy_sim.average_fidelity (Rng.create 99) ~n_qubits:traj_qubits ~ideal ~steps ~trials)
  in
  let trials_per_sec = float_of_int trials /. traj_seconds in

  Printf.printf
    "trajectories: %d trials of bv(%d) in %.3f s (%.0f trials/s, mean fidelity %.4f)\n" trials
    traj_qubits traj_seconds trials_per_sec !mean;
  Printf.printf "density: unitary + amplitude-damping channel on %d qubits, %s per qubit-op\n" dn
    (fmt_ns density_ns);

  let doc =
    Json.Obj
      [
        ("label", Json.String "sim");
        ("jobs", Json.Int (Pool.default_jobs ()));
        ("qubits", Json.Int n);
        ( "gate_kernels",
          Json.List
            [
              Json.Obj
                [
                  ("name", Json.String "apply_matrix1");
                  ("ns_per_gate_flat", Json.Float flat1);
                  ("ns_per_gate_boxed", Json.Float boxed1);
                  ("speedup", Json.Float speedup1);
                ];
              Json.Obj
                [
                  ("name", Json.String "apply_matrix2");
                  ("ns_per_gate_flat", Json.Float flat2);
                  ("ns_per_gate_boxed", Json.Float boxed2);
                  ("speedup", Json.Float speedup2);
                ];
            ] );
        ( "engine",
          Json.Obj
            [
              ("qubits", Json.Int big_n);
              ("cycles", Json.Int cycles);
              ("cycle_gates", Json.Int total_gates);
              ("ns_per_gate_flat", Json.Float big_flat);
              ("lone_2q", Json.Obj [ ("ns_serial", Json.Float lone_serial) ]);
            ] );
        ( "trajectories",
          Json.Obj
            [
              ("n_qubits", Json.Int traj_qubits);
              ("trials", Json.Int trials);
              ("seconds", Json.Float traj_seconds);
              ("trials_per_sec", Json.Float trials_per_sec);
              ("mean_fidelity", Json.Float !mean);
            ] );
        ( "density",
          Json.Obj [ ("qubits", Json.Int dn); ("ns_per_qubit_op", Json.Float density_ns) ] );
      ]
  in
  let oc = open_out "BENCH_sim.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote BENCH_sim.json\n%!"
