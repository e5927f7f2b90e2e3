(* Simulation-kernel microbenchmark: the Bigarray state-vector kernels
   against the boxed Statevector_ref baseline, the tier-2 engine (gate
   fusion + blocked kernels + amplitude-range sharding) against gate-at-a-
   time application on a deep ≥20-qubit workload, Monte-Carlo trajectory
   throughput through the domain pool, and the density superoperator loop.
   Emits BENCH_sim.json so kernel throughput is tracked across commits like
   the compiler timings (BENCH_timing.json).

   Env knobs (all optional; the `make bench-sim` smoke run shrinks them):
     FASTSC_SIM_QUBITS          state size for the flat-vs-boxed kernels (default 16)
     FASTSC_SIM_BIG_QUBITS      state size for the fused/sharded engine row (default 20)
     FASTSC_SIM_CYCLES          brickwork cycles in the big workload (default 3)
     FASTSC_SIM_TRIALS          trajectory batch size (default 200)
     FASTSC_SIM_TRAJ_QUBITS     trajectory workload size (default 12)
     FASTSC_SIM_DENSITY_QUBITS  density-matrix size (default 8, capped at 10)
     FASTSC_SIM_BUDGET_MS       min measuring time per kernel (default 300)
     FASTSC_SIM_FUSION          0 = diagnostic: replay the big workload
                                gate-at-a-time in the fused rows too *)

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some v when v > 0 -> v
  | _ -> default

(* Seconds per run: repeat the thunk, growing the batch until it fills the
   measuring budget, like bechamel's quota but without the harness weight. *)
let time_per_run ~budget f =
  f ();
  let rec go reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < budget && reps < 1 lsl 20 then go (reps * 4) else dt /. float_of_int reps
  in
  go 1

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
   (Rz then Ry, angles from a fixed seed so no fused product is the exact
   identity) followed by one sqrt-iSWAP layer on alternating even/odd
   neighbour pairings.  The canonical fusion shape: every 1q run is adjacent
   to a 2q gate that can absorb it. *)
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
  let fusion_on = env_int "FASTSC_SIM_FUSION" 1 > 0 in

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
  let flat1 = per_gate1 flat (fun s m q -> Statevector.apply_matrix1 ~jobs:1 s m q) in
  let boxed1 = per_gate1 boxed Statevector_ref.apply_matrix1 in
  let flat2 = per_gate2 flat (fun s m a b -> Statevector.apply_matrix2 ~jobs:1 s m a b) in
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

  (* Tier-2 engine on the deep workload: gate-at-a-time serial vs fused
     replay vs fused replay with amplitude-range sharding at the default job
     count.  All three rows divide by *source* gates, so they are directly
     comparable per-gate costs of the same circuit. *)
  Exp_common.heading
    (Printf.sprintf "Tier-2 engine: %d-qubit brickwork, %d cycles" big_n cycles);
  let circuit = brickwork ~n:big_n ~cycles in
  let total_gates = Circuit.length circuit in
  let plan = Fusion.plan circuit in
  let state = Statevector.create big_n in
  let gates = float_of_int total_gates in
  let big_flat =
    time_per_run ~budget (fun () -> Statevector.run ~jobs:1 state circuit) *. 1e9 /. gates
  in
  let big_fused =
    time_per_run ~budget (fun () ->
        if fusion_on then Fusion.apply ~jobs:1 state plan
        else Statevector.run ~jobs:1 state circuit)
    *. 1e9 /. gates
  in
  let big_sharded =
    time_per_run ~budget (fun () ->
        if fusion_on then Fusion.apply state plan else Statevector.run state circuit)
    *. 1e9 /. gates
  in
  (* Lone 2q gate at the big size: the sharding row of the acceptance
     criterion, plus the jobs-1-vs-4 bit-identity witness on the same gate. *)
  let lone_serial =
    time_per_run ~budget (fun () -> Statevector.apply_matrix2 ~jobs:1 state u2 0 (big_n - 1))
    *. 1e9
  in
  let lone_sharded =
    time_per_run ~budget (fun () -> Statevector.apply_matrix2 state u2 0 (big_n - 1)) *. 1e9
  in
  let bit_identical =
    let a = Statevector.copy state and b = Statevector.copy state in
    Statevector.apply_matrix2 ~jobs:1 a u2 0 (big_n - 1);
    Statevector.apply_matrix2 ~jobs:4 b u2 0 (big_n - 1);
    let are, aim = Statevector.buffers a and bre, bim = Statevector.buffers b in
    let ok = ref true in
    for k = 0 to (1 lsl big_n) - 1 do
      if
        Int64.bits_of_float are.{k} <> Int64.bits_of_float bre.{k}
        || Int64.bits_of_float aim.{k} <> Int64.bits_of_float bim.{k}
      then ok := false
    done;
    !ok
  in
  (* The default-jobs rows shard only when the pool default asks for more
     than one job; say how many shards they used, so a serial reading is not
     taken for a sharded one. *)
  let shards = Statevector.auto_shards state in
  let t2 = Tablefmt.create [ "engine"; "ns/gate"; "vs flat" ] in
  Tablefmt.add_row t2 [ "flat (gate-at-a-time, serial)"; fmt_ns big_flat; "1.0x" ];
  Tablefmt.add_row t2
    [ "fused (serial)"; fmt_ns big_fused; Printf.sprintf "%.1fx" (big_flat /. big_fused) ];
  Tablefmt.add_row t2
    [
      Printf.sprintf "fused+blocked+sharded (%d shard(s))" shards;
      fmt_ns big_sharded;
      Printf.sprintf "%.1fx" (big_flat /. big_sharded);
    ];
  Tablefmt.print t2;
  Printf.printf
    "fusion: %d source gates -> %d fused ops; lone 2q %s serial / %s on %d shard(s)%s\n"
    total_gates (Fusion.length plan) (fmt_ns lone_serial) (fmt_ns lone_sharded) shards
    (if bit_identical then " (bit-identical at jobs 1 vs 4)" else " (BIT MISMATCH jobs 1 vs 4)");

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

  (* Density superoperator loop: one run = a dense unitary conjugation plus
     an amplitude-damping channel on every qubit of a dn-qubit matrix. *)
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
              ("fused_instrs", Json.Int (Fusion.length plan));
              ("fusion_enabled", Json.Bool fusion_on);
              ("ns_per_gate_flat", Json.Float big_flat);
              ("ns_per_gate_fused", Json.Float big_fused);
              ("ns_per_gate_fused_sharded", Json.Float big_sharded);
              ("speedup_fused_vs_flat", Json.Float (big_flat /. big_fused));
              ("speedup_total_vs_flat", Json.Float (big_flat /. big_sharded));
              ( "lone_2q",
                Json.Obj
                  [
                    ("ns_serial", Json.Float lone_serial);
                    ("ns_sharded", Json.Float lone_sharded);
                    ("sharded_bit_identical", Json.Bool bit_identical);
                  ] );
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
