open Helpers

let test_of_circuit_is_unitary () =
  let c = Circuit.of_gates 3 [ (Gate.H, [ 0 ]); (Gate.Cnot, [ 0; 1 ]); (Gate.T, [ 2 ]) ] in
  check_true "unitary" (is_unitary ~tol:1e-9 (Unitary.of_circuit c))

let test_of_gate_embedding () =
  (* X on qubit 1 of a 2-qubit register = X (x) I in our bit order *)
  let u = Unitary.of_gate Gate.X [ 1 ] ~n_qubits:2 in
  let expected = Matrix.kron (Gate.unitary Gate.X) (Matrix.identity 2) in
  check_true "embedded" (Matrix.approx_equal ~tol:1e-9 u expected)

let test_global_phase_detection () =
  let a = Gate.unitary Gate.H in
  let b = Matrix.scale (Complex_ext.exp_i 0.7) a in
  (match Unitary.global_phase_between a b with
  | Some p -> check_true "phase found" (Complex_ext.approx_equal ~tol:1e-9 p (Complex_ext.exp_i 0.7))
  | None -> Alcotest.fail "expected a phase");
  check_true "different operators rejected"
    (Unitary.global_phase_between a (Gate.unitary Gate.X) = None)

let test_equivalent () =
  let a = Circuit.of_gates 2 [ (Gate.Cnot, [ 0; 1 ]) ] in
  let b = Circuit.of_gates 2 (Decompose.cnot_via_cz 0 1) in
  check_true "equivalent decomposition" (Unitary.equivalent a b);
  let c = Circuit.of_gates 2 [ (Gate.Swap, [ 0; 1 ]) ] in
  check_true "different circuits" (not (Unitary.equivalent a c));
  let d = Circuit.of_gates 3 [] in
  check_true "size mismatch raises"
    (try
       ignore (Unitary.equivalent a d);
       false
     with Invalid_argument _ -> true)

let prop_phase_invariance =
  prop_case "scaling by any phase preserves equivalence" QCheck.(float_range (-3.14) 3.14)
    (fun theta ->
      let u = Unitary.of_circuit (Circuit.of_gates 2 [ (Gate.Iswap, [ 0; 1 ]) ]) in
      Unitary.equal_up_to_phase u (Matrix.scale (Complex_ext.exp_i theta) u))

let suite =
  [
    Alcotest.test_case "of_circuit unitary" `Quick test_of_circuit_is_unitary;
    Alcotest.test_case "of_gate embedding" `Quick test_of_gate_embedding;
    Alcotest.test_case "global phase" `Quick test_global_phase_detection;
    Alcotest.test_case "equivalent" `Quick test_equivalent;
    prop_phase_invariance;
  ]
