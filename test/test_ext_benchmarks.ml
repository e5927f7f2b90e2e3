open Helpers
open Fastsc_benchmarks

let test_cp_gadget_unitary () =
  (* CP(theta) = diag(1,1,1,e^{i theta}) up to global phase *)
  let theta = 0.9 in
  let gadget = Circuit.of_gates 2 (Qft.controlled_phase theta 1 0) in
  let expected =
    Matrix.of_arrays
      [|
        [| Complex.one; Complex.zero; Complex.zero; Complex.zero |];
        [| Complex.zero; Complex.one; Complex.zero; Complex.zero |];
        [| Complex.zero; Complex.zero; Complex.one; Complex.zero |];
        [| Complex.zero; Complex.zero; Complex.zero; Complex_ext.exp_i theta |];
      |]
  in
  check_true "cp gadget" (equal_up_to_phase (circuit_unitary gadget) expected)

let test_qft_unitary () =
  (* QFT matrix: entry (j,k) = omega^{jk} / sqrt(N) *)
  let n = 3 in
  let dim = 1 lsl n in
  let expected =
    Matrix.init dim dim (fun j k ->
        Complex_ext.scale
          (1.0 /. sqrt (float_of_int dim))
          (Complex_ext.exp_i (2.0 *. Float.pi *. float_of_int (j * k) /. float_of_int dim)))
  in
  let c = Qft.circuit ~n () in
  check_true "qft matrix" (equal_up_to_phase (circuit_unitary c) expected)

let test_qft_without_reversal () =
  let c = Qft.circuit ~reverse:false ~n:4 () in
  check_int "no swaps" 0 (Circuit.count (fun g -> g = Gate.Swap) c)

let test_qft_approximation_drops_gates () =
  let exact = Qft.circuit ~n:6 () in
  let approx = Qft.circuit ~approximation:2 ~n:6 () in
  check_true "fewer gates" (Circuit.length approx < Circuit.length exact)

let test_qft_validation () =
  check_true "n=0 rejected"
    (try
       ignore (Qft.circuit ~n:0 ());
       false
     with Invalid_argument _ -> true)

let test_ghz_chain_state () =
  let c = Ghz.circuit ~n:4 () in
  let sv = Statevector.of_circuit c in
  List.iter
    (fun (outcome, p) -> check_float ~eps:1e-12 "ghz outcome" p (Statevector.probability sv outcome))
    (Ghz.expected_probabilities ~n:4);
  check_float ~eps:1e-12 "nothing else" 0.0 (Statevector.probability sv 5)

let test_ghz_fanout_state_and_depth () =
  let chain = Ghz.circuit ~n:8 () in
  let tree = Ghz.circuit ~fanout:true ~n:8 () in
  (* same state *)
  check_float ~eps:1e-12 "same state" 1.0
    (Statevector.fidelity (Statevector.of_circuit chain) (Statevector.of_circuit tree));
  (* logarithmic vs linear depth *)
  check_true "tree shallower" (Layers.depth tree < Layers.depth chain);
  check_int "tree depth" 4 (Layers.depth tree)

let test_ghz_compiles_everywhere () =
  let device = Fastsc_device.Device.create ~seed:5 (Topology.grid 3 3) in
  List.iter
    (fun algorithm ->
      let s = Fastsc_core.Compile.run algorithm device (Ghz.circuit ~fanout:true ~n:9 ()) in
      check_true "valid" (Result.is_ok (Fastsc_core.Schedule.check s)))
    Fastsc_core.Compile.extended_algorithms

let test_qft_compiles () =
  let device = Fastsc_device.Device.create ~seed:5 (Topology.grid 3 3) in
  let s = Fastsc_core.Compile.run Fastsc_core.Compile.Color_dynamic device (Qft.circuit ~n:6 ()) in
  check_true "valid" (Result.is_ok (Fastsc_core.Schedule.check s))

let test_grover_data_qubits () =
  (* d data qubits + max 0 (d-3) v-chain ancillas must fit in n. *)
  List.iter
    (fun (n, d) -> check_int (Printf.sprintf "data_qubits %d" n) d (Grover.data_qubits ~n))
    [ (1, 1); (3, 3); (4, 3); (9, 6); (16, 9) ]

let test_grover_amplifies_marked_state () =
  (* n=4 hosts d=3 data qubits: success probability after the optimal two
     rounds is sin^2(5 asin(1/sqrt 8)) ~ 0.945. *)
  check_int "optimal rounds" 2 (Grover.optimal_rounds ~n:4);
  let sv = Statevector.of_circuit (Grover.circuit ~rounds:2 ~n:4 ()) in
  let marked = Statevector.probability sv 7 in
  check_true "marked state amplified" (marked > 0.9);
  (* sin^2(5 asin(1/sqrt 8)) = (2.75)^2 / 8 exactly. *)
  check_float ~eps:1e-9 "exact success probability" 0.9453125 marked

let test_grover_ancillas_restored () =
  (* Qubits >= data_qubits come back to |0>: no probability mass on any
     basis state with an ancilla bit set. *)
  let n = 9 in
  let d = Grover.data_qubits ~n in
  let sv = Statevector.of_circuit (Grover.circuit ~n ()) in
  let leaked = ref 0.0 in
  for k = 0 to (1 lsl n) - 1 do
    if k lsr d <> 0 then leaked := !leaked +. Statevector.probability sv k
  done;
  check_float ~eps:1e-9 "ancillas restored" 0.0 !leaked

let test_grover_custom_mark () =
  let sv = Statevector.of_circuit (Grover.circuit ~marked:2 ~rounds:2 ~n:4 ()) in
  check_true "custom mark amplified" (Statevector.probability sv 2 > 0.9)

let test_vqe_shape_and_determinism () =
  (* layers * (2n rotations + (n-1) cz) + closing 2n rotations. *)
  let n = 4 and layers = 2 in
  let c = Vqe.circuit (Rng.create 5) ~layers ~n () in
  check_int "gate count" ((layers * ((2 * n) + (n - 1))) + (2 * n)) (Circuit.length c);
  check_int "cz count" (layers * (n - 1)) (Circuit.n_two_qubit c);
  (* Same seed, same circuit: the ansatz is reproducible. *)
  let c' = Vqe.circuit (Rng.create 5) ~layers ~n () in
  check_float ~eps:1e-12 "same seed same state" 1.0
    (Statevector.fidelity (Statevector.of_circuit c) (Statevector.of_circuit c'))

let test_vqe_validation () =
  check_true "n=1 rejected"
    (try
       ignore (Vqe.circuit (Rng.create 0) ~n:1 ());
       false
     with Invalid_argument _ -> true)

let prop_qft_sizes =
  prop_case "qft gate count formula" (int_range 1 8) (fun n ->
      let c = Qft.circuit ~reverse:false ~n () in
      (* n Hadamards + 5 gates per controlled phase, n(n-1)/2 phases *)
      Circuit.length c = n + (5 * n * (n - 1) / 2))

let prop_ghz_fanout_always_ghz =
  prop_case "fanout ghz correct for all sizes" (int_range 2 10) (fun n ->
      let sv = Statevector.of_circuit (Ghz.circuit ~fanout:true ~n ()) in
      Float.abs (Statevector.probability sv 0 -. 0.5) < 1e-9
      && Float.abs (Statevector.probability sv ((1 lsl n) - 1) -. 0.5) < 1e-9)

let suite =
  [
    Alcotest.test_case "cp gadget" `Quick test_cp_gadget_unitary;
    Alcotest.test_case "qft unitary" `Quick test_qft_unitary;
    Alcotest.test_case "qft without reversal" `Quick test_qft_without_reversal;
    Alcotest.test_case "qft approximation" `Quick test_qft_approximation_drops_gates;
    Alcotest.test_case "qft validation" `Quick test_qft_validation;
    Alcotest.test_case "ghz chain state" `Quick test_ghz_chain_state;
    Alcotest.test_case "ghz fanout" `Quick test_ghz_fanout_state_and_depth;
    Alcotest.test_case "ghz compiles everywhere" `Quick test_ghz_compiles_everywhere;
    Alcotest.test_case "qft compiles" `Quick test_qft_compiles;
    Alcotest.test_case "grover data qubits" `Quick test_grover_data_qubits;
    Alcotest.test_case "grover amplification" `Quick test_grover_amplifies_marked_state;
    Alcotest.test_case "grover ancillas restored" `Quick test_grover_ancillas_restored;
    Alcotest.test_case "grover custom mark" `Quick test_grover_custom_mark;
    Alcotest.test_case "vqe shape" `Quick test_vqe_shape_and_determinism;
    Alcotest.test_case "vqe validation" `Quick test_vqe_validation;
    prop_qft_sizes;
    prop_ghz_fanout_always_ghz;
  ]
