open Helpers

let sample () =
  Circuit.of_gates 3
    [
      (Gate.H, [ 0 ]);
      (Gate.Cnot, [ 0; 1 ]);
      (Gate.Cz, [ 1; 2 ]);
      (Gate.Rz 0.5, [ 2 ]);
      (Gate.Cnot, [ 0; 1 ]);
    ]

let test_build () =
  let c = sample () in
  check_int "qubits" 3 (Circuit.n_qubits c);
  check_int "length" 5 (Circuit.length c);
  check_int "two-qubit gates" 3 (Circuit.n_two_qubit c)

let test_instruction_ids () =
  let c = sample () in
  Array.iteri (fun i app -> check_int "id = position" i app.Gate.id) (Circuit.instructions c)

let test_validation () =
  let b = Circuit.builder 2 in
  Alcotest.check_raises "arity" (Invalid_argument "Circuit.add: cz expects 2 operand(s)")
    (fun () -> Circuit.add b Gate.Cz [ 0 ]);
  Alcotest.check_raises "range" (Invalid_argument "Circuit.add: qubit 5 out of range [0,2)")
    (fun () -> Circuit.add b Gate.H [ 5 ]);
  Alcotest.check_raises "duplicate" (Invalid_argument "Circuit.add: duplicate operand")
    (fun () -> Circuit.add b Gate.Cz [ 1; 1 ]);
  Alcotest.check_raises "zero qubits" (Invalid_argument "Circuit.builder: qubit count must be positive")
    (fun () -> ignore (Circuit.builder 0))

let test_count () =
  let c = sample () in
  check_int "cnots" 2 (Circuit.count (fun g -> g = Gate.Cnot) c);
  check_int "native" 3 (Circuit.count Gate.is_native c)

let test_two_qubit_pairs () =
  let c = sample () in
  Alcotest.(check (list (pair int int))) "pairs deduped" [ (0, 1); (1, 2) ] (Circuit.two_qubit_pairs c)

let test_map_qubits () =
  let c = sample () in
  let mapped = Circuit.map_qubits (fun q -> 2 - q) c in
  let first = (Circuit.instructions mapped).(0) in
  check_int "h moved to qubit 2" 2 first.Gate.qubits.(0);
  Alcotest.check_raises "non-injective"
    (Invalid_argument "Circuit.map_qubits: relabeling is not injective") (fun () ->
      ignore (Circuit.map_qubits (fun _ -> 0) c))

let test_append () =
  let a = Circuit.of_gates 2 [ (Gate.H, [ 0 ]) ] in
  let b = Circuit.of_gates 2 [ (Gate.X, [ 1 ]) ] in
  let ab = Circuit.append a b in
  check_int "length" 2 (Circuit.length ab);
  check_int "ids renumbered" 1 (Circuit.instructions ab).(1).Gate.id;
  let c3 = Circuit.of_gates 3 [] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Circuit.append: qubit count mismatch")
    (fun () -> ignore (Circuit.append a c3))

let test_concat_gates () =
  let c = Circuit.of_gates 2 [ (Gate.H, [ 0 ]) ] in
  let c' = Circuit.concat_gates c [ (Gate.Cz, [ 0; 1 ]); (Gate.X, [ 1 ]) ] in
  check_int "length" 3 (Circuit.length c');
  check_int "original unchanged" 1 (Circuit.length c)

let test_pp_smoke () =
  let s = Format.asprintf "%a" Circuit.pp (sample ()) in
  check_true "mentions cz" (String.length s > 0 && String.sub s 0 1 = "h")

let prop_of_gates_roundtrip =
  prop_case "instructions match inputs" (int_range 1 30) (fun n_gates ->
      let gates = List.init n_gates (fun i -> (Gate.Rz (float_of_int i), [ i mod 4 ])) in
      let c = Circuit.of_gates 4 gates in
      Circuit.length c = n_gates
      && Array.for_all
           (fun app -> Gate.equal app.Gate.gate (Gate.Rz (float_of_int app.Gate.id)))
           (Circuit.instructions c))

let suite =
  [
    Alcotest.test_case "build" `Quick test_build;
    Alcotest.test_case "instruction ids" `Quick test_instruction_ids;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "count" `Quick test_count;
    Alcotest.test_case "two qubit pairs" `Quick test_two_qubit_pairs;
    Alcotest.test_case "map qubits" `Quick test_map_qubits;
    Alcotest.test_case "append" `Quick test_append;
    Alcotest.test_case "concat gates" `Quick test_concat_gates;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
    prop_of_gates_roundtrip;
  ]
