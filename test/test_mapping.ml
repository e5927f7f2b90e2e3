open Helpers

let grid3 = lazy (Topology.grid 3 3).Topology.graph

let lookahead g c = Mapping.route_lookahead ~dist:(Paths.all_pairs g) g c

let test_adjacent_untouched () =
  let g = Lazy.force grid3 in
  let c = Circuit.of_gates 9 [ (Gate.Cz, [ 0; 1 ]); (Gate.H, [ 4 ]) ] in
  let r = Mapping.route g c in
  check_int "no swaps" 0 r.Mapping.n_swaps;
  check_int "same length" 2 (Circuit.length r.Mapping.circuit)

let test_distant_gate_inserts_swaps () =
  let g = Lazy.force grid3 in
  let c = Circuit.of_gates 9 [ (Gate.Cz, [ 0; 8 ]) ] in
  let r = Mapping.route g c in
  (* distance 4, so 3 swaps needed *)
  check_int "swaps" 3 r.Mapping.n_swaps;
  check_true "routed circuit valid" (Mapping.verify g r.Mapping.circuit)

let test_routing_preserves_semantics () =
  (* route on a path, then undo the permutation: states must match *)
  let line = (Topology.path 4).Topology.graph in
  let c =
    Circuit.of_gates 4 [ (Gate.H, [ 0 ]); (Gate.Cnot, [ 0; 3 ]); (Gate.Cnot, [ 1; 2 ]) ]
  in
  let r = Mapping.route line c in
  check_true "verified" (Mapping.verify line r.Mapping.circuit);
  (* simulate original on logical qubits *)
  let ideal = Statevector.of_circuit c in
  (* simulate routed, then read out through the final mapping *)
  let routed = Statevector.of_circuit r.Mapping.circuit in
  let ideal_probs = Statevector.probabilities ideal in
  let routed_probs = Statevector.probabilities routed in
  (* basis index remap: logical bit q lives at physical r.final.(q) *)
  let remap idx =
    let out = ref 0 in
    for q = 0 to 3 do
      if idx land (1 lsl q) <> 0 then out := !out lor (1 lsl r.Mapping.final.(q))
    done;
    !out
  in
  Array.iteri
    (fun idx p -> check_float ~eps:1e-9 "probabilities match" p routed_probs.(remap idx))
    ideal_probs

let test_verify_detects_bad_circuit () =
  let g = Lazy.force grid3 in
  let bad = Circuit.of_gates 9 [ (Gate.Cz, [ 0; 8 ]) ] in
  check_true "invalid" (not (Mapping.verify g bad))

let test_identity_placement () =
  let g = Lazy.force grid3 in
  let c = Circuit.of_gates 4 [ (Gate.H, [ 0 ]) ] in
  Alcotest.(check (array int)) "identity" [| 0; 1; 2; 3 |] (Mapping.identity_placement g c)

let test_too_small_device () =
  let g = (Topology.path 2).Topology.graph in
  let c = Circuit.of_gates 5 [] in
  Alcotest.check_raises "too small"
    (Invalid_argument "Mapping: device has 2 qubits, circuit needs 5") (fun () ->
      ignore (Mapping.route g c))

let test_degree_placement_valid () =
  let g = Lazy.force grid3 in
  let c =
    Circuit.of_gates 5
      [ (Gate.Cz, [ 0; 1 ]); (Gate.Cz, [ 0; 2 ]); (Gate.Cz, [ 0; 3 ]); (Gate.Cz, [ 0; 4 ]) ]
  in
  let p = Mapping.degree_placement g c in
  check_int "size" 5 (Array.length p);
  check_int "distinct" 5 (List.length (List.sort_uniq compare (Array.to_list p)));
  (* the hub qubit should land on the center (degree 4) *)
  check_int "hub on center" 4 p.(0)

let test_degree_placement_reduces_swaps () =
  let g = Lazy.force grid3 in
  let star =
    Circuit.of_gates 9
      (List.init 8 (fun i -> (Gate.Cz, [ 0; i + 1 ])))
  in
  let naive = Mapping.route g star in
  let smart = Mapping.route ~placement:(Mapping.degree_placement g star) g star in
  check_true "placement helps" (smart.Mapping.n_swaps <= naive.Mapping.n_swaps)

let test_non_injective_placement_rejected () =
  let g = Lazy.force grid3 in
  let c = Circuit.of_gates 2 [] in
  Alcotest.check_raises "duplicate placement"
    (Invalid_argument "Mapping.route: placement is not injective into the device") (fun () ->
      ignore (Mapping.route ~placement:[| 0; 0 |] g c))

let test_lookahead_valid_and_semantic () =
  let line = (Topology.path 4).Topology.graph in
  let c =
    Circuit.of_gates 4 [ (Gate.H, [ 0 ]); (Gate.Cnot, [ 0; 3 ]); (Gate.Cnot, [ 1; 2 ]) ]
  in
  let r = lookahead line c in
  check_true "verified" (Mapping.verify line r.Mapping.circuit);
  let ideal = Statevector.of_circuit c in
  let routed = Statevector.of_circuit r.Mapping.circuit in
  let ideal_probs = Statevector.probabilities ideal in
  let routed_probs = Statevector.probabilities routed in
  let remap idx =
    let out = ref 0 in
    for q = 0 to 3 do
      if idx land (1 lsl q) <> 0 then out := !out lor (1 lsl r.Mapping.final.(q))
    done;
    !out
  in
  Array.iteri
    (fun idx p -> check_float ~eps:1e-9 "probabilities match" p routed_probs.(remap idx))
    ideal_probs

let test_lookahead_beats_greedy_on_shared_traffic () =
  (* several gates crossing the same region: one SWAP should serve many *)
  let line = (Topology.path 6).Topology.graph in
  let c =
    Circuit.of_gates 6
      [
        (Gate.Cz, [ 0; 2 ]); (Gate.Cz, [ 1; 3 ]); (Gate.Cz, [ 0; 3 ]); (Gate.Cz, [ 2; 4 ]);
        (Gate.Cz, [ 1; 4 ]); (Gate.Cz, [ 3; 5 ]);
      ]
  in
  let greedy = Mapping.route line c in
  let smart = lookahead line c in
  check_true "verified" (Mapping.verify line smart.Mapping.circuit);
  check_true "no more swaps than greedy" (smart.Mapping.n_swaps <= greedy.Mapping.n_swaps)

let test_lookahead_adjacent_needs_no_swaps () =
  let g = Lazy.force grid3 in
  let c = Circuit.of_gates 9 [ (Gate.Cz, [ 0; 1 ]); (Gate.Cz, [ 4; 5 ]) ] in
  check_int "no swaps" 0 (lookahead g c).Mapping.n_swaps

let test_lookahead_rejects_foreign_distances () =
  let g = Lazy.force grid3 in
  let c = Circuit.of_gates 2 [ (Gate.Cz, [ 0; 1 ]) ] in
  Alcotest.check_raises "a 2x2 matrix for a 9-qubit graph"
    (Invalid_argument "Mapping.route_lookahead: distance matrix does not match the device")
    (fun () ->
      let pair = (Topology.grid 2 1).Topology.graph in
      ignore (Mapping.route_lookahead ~dist:(Paths.all_pairs pair) g c))

let prop_lookahead_always_validates =
  prop_case ~count:40 "lookahead-routed circuits always verify" (int_range 1 5000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Lazy.force grid3 in
      let b = Circuit.builder 9 in
      for _ = 1 to 15 do
        let a = Rng.int rng 9 in
        let bq = (a + 1 + Rng.int rng 8) mod 9 in
        Circuit.add b Gate.Cz [ a; bq ]
      done;
      let r = lookahead g (Circuit.finish b) in
      Mapping.verify g r.Mapping.circuit)

let prop_lookahead_never_loses_gates =
  prop_case ~count:40 "lookahead preserves all gates" (int_range 1 5000) (fun seed ->
      let rng = Rng.create seed in
      let g = Lazy.force grid3 in
      let b = Circuit.builder 9 in
      let n_gates = 12 in
      for _ = 1 to n_gates do
        let a = Rng.int rng 9 in
        Circuit.add b Gate.Cz [ a; (a + 1 + Rng.int rng 8) mod 9 ]
      done;
      let r = lookahead g (Circuit.finish b) in
      Circuit.length r.Mapping.circuit = n_gates + r.Mapping.n_swaps)

let prop_routing_always_validates =
  prop_case ~count:50 "routed circuits always verify" (int_range 1 5000) (fun seed ->
      let rng = Rng.create seed in
      let g = Lazy.force grid3 in
      let b = Circuit.builder 9 in
      for _ = 1 to 15 do
        let a = Rng.int rng 9 in
        let bq = (a + 1 + Rng.int rng 8) mod 9 in
        Circuit.add b Gate.Cz [ a; bq ]
      done;
      let r = Mapping.route g (Circuit.finish b) in
      Mapping.verify g r.Mapping.circuit)

let suite =
  [
    Alcotest.test_case "adjacent untouched" `Quick test_adjacent_untouched;
    Alcotest.test_case "distant gate swaps" `Quick test_distant_gate_inserts_swaps;
    Alcotest.test_case "routing preserves semantics" `Quick test_routing_preserves_semantics;
    Alcotest.test_case "verify detects bad" `Quick test_verify_detects_bad_circuit;
    Alcotest.test_case "identity placement" `Quick test_identity_placement;
    Alcotest.test_case "too small device" `Quick test_too_small_device;
    Alcotest.test_case "degree placement valid" `Quick test_degree_placement_valid;
    Alcotest.test_case "degree placement helps" `Quick test_degree_placement_reduces_swaps;
    Alcotest.test_case "non-injective placement" `Quick test_non_injective_placement_rejected;
    Alcotest.test_case "lookahead valid + semantic" `Quick test_lookahead_valid_and_semantic;
    Alcotest.test_case "lookahead beats greedy" `Quick test_lookahead_beats_greedy_on_shared_traffic;
    Alcotest.test_case "lookahead adjacent no swaps" `Quick test_lookahead_adjacent_needs_no_swaps;
    Alcotest.test_case "lookahead foreign distances" `Quick test_lookahead_rejects_foreign_distances;
    prop_lookahead_always_validates;
    prop_lookahead_never_loses_gates;
    prop_routing_always_validates;
  ]
