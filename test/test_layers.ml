open Helpers

let sample () =
  (* ASAP layers: {h0, h1, rz2}, {cz(0,1)}, {cz(1,2)} *)
  Circuit.of_gates 3
    [
      (Gate.H, [ 0 ]);
      (Gate.H, [ 1 ]);
      (Gate.Cz, [ 0; 1 ]);
      (Gate.Rz 0.1, [ 2 ]);
      (Gate.Cz, [ 1; 2 ]);
    ]

let test_slice_structure () =
  let layers = Layers.slice (sample ()) in
  check_int "three layers" 3 (List.length layers);
  Alcotest.(check (list int)) "layer sizes" [ 3; 1; 1 ] (List.map List.length layers)

let test_slice_disjoint () =
  let layers = Layers.slice (sample ()) in
  List.iter
    (fun layer ->
      let qubits = List.concat_map (fun app -> Array.to_list app.Gate.qubits) layer in
      check_int "qubit-disjoint" (List.length qubits) (List.length (List.sort_uniq compare qubits)))
    layers

let test_slice_preserves_order () =
  let c = sample () in
  let flat = List.concat (Layers.slice c) in
  check_int "all instructions present" (Circuit.length c) (List.length flat);
  (* dependencies respected: an instruction never appears in an earlier layer
     than one it depends on *)
  let idx = Layers.layer_index c in
  Array.iter
    (fun app ->
      Array.iter
        (fun q ->
          Array.iter
            (fun other ->
              if other.Gate.id < app.Gate.id && Array.mem q other.Gate.qubits then
                check_true "dependency ordered" (idx.(other.Gate.id) < idx.(app.Gate.id)))
            (Circuit.instructions c))
        app.Gate.qubits)
    (Circuit.instructions c)

let test_depth () =
  check_int "depth" 3 (Layers.depth (sample ()));
  check_int "empty circuit depth" 0 (Layers.depth (Circuit.of_gates 2 []))

let test_criticality () =
  let c = sample () in
  let crit = Layers.criticality c in
  (* h1 (id 1) heads the chain h1 -> cz01 -> cz12 of length 3 *)
  check_int "h1 criticality" 3 crit.(1);
  check_int "cz12 last" 1 crit.(4);
  check_int "rz2 chain" 2 crit.(3)

let test_criticality_bounded_by_depth () =
  let c = sample () in
  let depth = Layers.depth c in
  Array.iter (fun k -> check_true "within depth" (k >= 1 && k <= depth)) (Layers.criticality c)

let test_qubit_busy_layers () =
  let busy = Layers.qubit_busy_layers (sample ()) in
  check_int "qubit 0" 2 busy.(0);
  check_int "qubit 1" 3 busy.(1);
  check_int "qubit 2" 2 busy.(2)

let random_circuit seed n_qubits n_gates =
  let rng = Rng.create seed in
  let b = Circuit.builder n_qubits in
  for _ = 1 to n_gates do
    if Rng.bool rng && n_qubits >= 2 then begin
      let a = Rng.int rng n_qubits in
      let bq = (a + 1 + Rng.int rng (n_qubits - 1)) mod n_qubits in
      Circuit.add b Gate.Cz [ a; bq ]
    end
    else Circuit.add b Gate.H [ Rng.int rng n_qubits ]
  done;
  Circuit.finish b

let prop_depth_le_length =
  prop_case "depth <= gate count" (QCheck.pair (int_range 1 500) (int_range 1 40)) (fun (seed, n) ->
      let c = random_circuit seed 5 n in
      Layers.depth c <= Circuit.length c && Layers.depth c >= 1)

let prop_max_criticality_is_depth =
  prop_case "max criticality = depth" (int_range 1 500) (fun seed ->
      let c = random_circuit seed 4 25 in
      let crit = Layers.criticality c in
      Array.fold_left max 0 crit = Layers.depth c)

let prop_layers_partition =
  prop_case "slicing is a partition" (int_range 1 500) (fun seed ->
      let c = random_circuit seed 6 30 in
      let flat = List.concat (Layers.slice c) in
      let ids = List.sort compare (List.map (fun app -> app.Gate.id) flat) in
      ids = List.init (Circuit.length c) Fun.id)

let suite =
  [
    Alcotest.test_case "slice structure" `Quick test_slice_structure;
    Alcotest.test_case "slice disjoint" `Quick test_slice_disjoint;
    Alcotest.test_case "slice preserves order" `Quick test_slice_preserves_order;
    Alcotest.test_case "depth" `Quick test_depth;
    Alcotest.test_case "criticality" `Quick test_criticality;
    Alcotest.test_case "criticality bounded" `Quick test_criticality_bounded_by_depth;
    Alcotest.test_case "busy layers" `Quick test_qubit_busy_layers;
    prop_depth_le_length;
    prop_max_criticality_is_depth;
    prop_layers_partition;
  ]
