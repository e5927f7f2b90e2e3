(* Bit-for-bit trajectory means: the golden behind the `sim bits` cases of
   test/test_golden.ml.

   The cells are validate-sim's 39 ({bv, ising, qaoa, qgan, xeb} x n in
   {4, 6} and {bv, ising, qaoa} x n = 9, each under baseline-n, baseline-u
   and color-dynamic; square-grid device seed 2020, circuit seed 7, three
   XEB cycles).  Each cell is compiled, lowered to noisy steps, and
   [Noisy_sim.average_fidelity] runs 16 trials from a fixed per-cell seed;
   one line prints the IEEE-754 bits of the mean, so a change in the lowest
   bit of any statevector kernel's output shows as a diff.  The n = 4 and
   n = 6 cells, the 30 that validate-sim keeps exact references for, also
   print the bits of [Density.fidelity_pure] of the exact density-matrix run
   against the ideal state, which pins the density kernels (the dense gate
   conjugation, the closed-form Pauli channel, the density-local exchange)
   and the gate matrices they are fed.  Those 30 runs take 0.15-0.22 s in
   all on a 2-core x86-64 VM; the n = 9 cells skip them, at 1.7-7.2 s of
   [run_steps] each.
   Regenerate the golden with
   `dune exec bench/main.exe -- sim-bits > test/sim_bits.golden`. *)

let algorithms = [ "baseline-n"; "baseline-u"; "color-dynamic" ]

let cells =
  List.concat_map
    (fun (benches, n) ->
      List.concat_map
        (fun bench -> List.map (fun algorithm -> (bench, n, algorithm)) algorithms)
        benches)
    [
      ([ "bv"; "ising"; "qaoa"; "qgan"; "xeb" ], 4);
      ([ "bv"; "ising"; "qaoa"; "qgan"; "xeb" ], 6);
      ([ "bv"; "ising"; "qaoa" ], 9);
    ]

let trials = 16

let circuit bench n device =
  if bench = "xeb" then Exp_common.xeb_for_device ~cycles:3 device
  else (Exp_common.benchmark bench n).Exp_common.make device

(* Cells run one after another: the trials of each already fan out over the
   pool, and their mean is bit-identical at any job count. *)
let run () =
  List.iteri
    (fun i (bench, n, algorithm) ->
      let device = Exp_common.mesh_device n in
      let ctx = Pass.execute ~algorithm device (circuit bench n device) in
      let steps = Schedule.to_noisy_steps (Pass.Context.schedule_exn ctx) in
      let n_qubits = Device.n_qubits device in
      let ideal = Noisy_sim.ideal_of_steps ~n_qubits steps in
      let mean =
        Noisy_sim.average_fidelity (Rng.create (7919 + i)) ~n_qubits ~ideal ~steps ~trials
      in
      let exact =
        if n > 6 then ""
        else
          Printf.sprintf " exact=%016Lx"
            (Int64.bits_of_float (Density.fidelity_pure (Density.run_steps ~n_qubits steps) ideal))
      in
      Printf.printf "%s(%d)/%s mean=%016Lx%s\n" bench n algorithm (Int64.bits_of_float mean) exact)
    cells
