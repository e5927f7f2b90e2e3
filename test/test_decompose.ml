open Helpers

(* Every decomposition must reproduce the original two-qubit unitary up to a
   global phase, checked through the state-vector simulator. *)
let check_equivalent name original replacement =
  check_gates_equivalent name [ original ] replacement

let test_cnot_via_cz () =
  check_equivalent "cnot via cz" (Gate.Cnot, [ 1; 0 ]) (Decompose.cnot_via_cz 1 0);
  check_equivalent "cnot via cz reversed" (Gate.Cnot, [ 0; 1 ]) (Decompose.cnot_via_cz 0 1)

let test_cnot_via_iswap () =
  check_equivalent "cnot via iswap" (Gate.Cnot, [ 1; 0 ]) (Decompose.cnot_via_iswap 1 0);
  check_equivalent "cnot via iswap reversed" (Gate.Cnot, [ 0; 1 ]) (Decompose.cnot_via_iswap 0 1)

let test_swap_via_cz () =
  check_equivalent "swap via cz" (Gate.Swap, [ 0; 1 ]) (Decompose.swap_via_cz 0 1)

let test_swap_via_sqrt_iswap () =
  check_equivalent "swap via sqrt-iswap" (Gate.Swap, [ 0; 1 ]) (Decompose.swap_via_sqrt_iswap 0 1);
  check_equivalent "swap via sqrt-iswap reversed" (Gate.Swap, [ 1; 0 ])
    (Decompose.swap_via_sqrt_iswap 1 0)

let test_native_pass_through () =
  Alcotest.(check (list (pair (module struct
    type t = Gate.t

    let equal = Gate.equal

    let pp fmt g = Format.pp_print_string fmt (Gate.name g)
  end) (list int))))
    "native untouched"
    [ (Gate.Cz, [ 0; 1 ]) ]
    (Decompose.gate Decompose.Hybrid Gate.Cz [ 0; 1 ])

let test_strategy_gate_choice () =
  let two_qubit_count gates =
    List.length (List.filter (fun (g, _) -> Gate.is_two_qubit g) gates)
  in
  let czs gates = List.length (List.filter (fun (g, _) -> g = Gate.Cz) gates) in
  let cnot_cz = Decompose.gate Decompose.All_cz Gate.Cnot [ 0; 1 ] in
  check_int "all-cz cnot uses 1 cz" 1 (czs cnot_cz);
  let cnot_iswap = Decompose.gate Decompose.All_iswap Gate.Cnot [ 0; 1 ] in
  check_int "all-iswap cnot uses 2 two-qubit gates" 2 (two_qubit_count cnot_iswap);
  let swap_hybrid = Decompose.gate Decompose.Hybrid Gate.Swap [ 0; 1 ] in
  check_int "hybrid swap uses 3 sqrt-iswaps" 3
    (List.length (List.filter (fun (g, _) -> g = Gate.Sqrt_iswap) swap_hybrid))

let test_run_only_native () =
  let c =
    Circuit.of_gates 3
      [ (Gate.H, [ 0 ]); (Gate.Cnot, [ 0; 1 ]); (Gate.Swap, [ 1; 2 ]); (Gate.Cz, [ 0; 1 ]) ]
  in
  List.iter
    (fun strategy ->
      let out = Decompose.run strategy c in
      check_true
        (Decompose.strategy_to_string strategy ^ " all native")
        (Array.for_all (fun app -> Gate.is_native app.Gate.gate) (Circuit.instructions out)))
    [ Decompose.All_cz; Decompose.All_iswap; Decompose.Hybrid ]

let test_run_preserves_semantics () =
  let c =
    Circuit.of_gates 3
      [ (Gate.H, [ 0 ]); (Gate.Cnot, [ 0; 1 ]); (Gate.Swap, [ 1; 2 ]); (Gate.T, [ 2 ]) ]
  in
  let u_ref = circuit_unitary c in
  List.iter
    (fun strategy ->
      let out = Decompose.run strategy c in
      check_true
        (Decompose.strategy_to_string strategy ^ " semantics")
        (equal_up_to_phase (circuit_unitary out) u_ref))
    [ Decompose.All_cz; Decompose.All_iswap; Decompose.Hybrid ]

let test_hybrid_cheaper_than_uniform () =
  (* the motivation for the hybrid strategy (paper Fig 8 / §V-B5):
     CNOT is cheaper through CZ (one native two-qubit gate vs two iSWAPs),
     and SWAP spends less total interaction time through sqrt-iSWAPs *)
  let count_2q gates = List.length (List.filter (fun (g, _) -> Gate.is_two_qubit g) gates) in
  check_int "cnot via cz: 1 two-qubit gate" 1 (count_2q (Decompose.cnot_via_cz 0 1));
  check_int "cnot via iswap: 2 two-qubit gates" 2 (count_2q (Decompose.cnot_via_iswap 0 1));
  let g = 0.03 in
  let time_via_cz = 3.0 *. Coupled_pair.cz_time ~g in
  let time_via_sqrt = 3.0 *. Coupled_pair.sqrt_iswap_time ~g in
  check_true "swap interaction time shorter via sqrt-iswap" (time_via_sqrt < time_via_cz)

let prop_arbitrary_circuits_preserved =
  prop_case ~count:30 "random circuits survive decomposition" (int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let b = Circuit.builder 3 in
      for _ = 1 to 6 do
        match Rng.int rng 4 with
        | 0 ->
          let a = Rng.int rng 3 in
          Circuit.add b Gate.Cnot [ a; (a + 1 + Rng.int rng 2) mod 3 ]
        | 1 -> Circuit.add b Gate.Swap [ 0; 1 + Rng.int rng 2 ]
        | 2 -> Circuit.add b Gate.H [ Rng.int rng 3 ]
        | _ -> Circuit.add b (Gate.Rz (Rng.float rng)) [ Rng.int rng 3 ]
      done;
      let c = Circuit.finish b in
      let u_ref = circuit_unitary c in
      equal_up_to_phase (circuit_unitary (Decompose.run Decompose.Hybrid c)) u_ref)

let suite =
  [
    Alcotest.test_case "cnot via cz" `Quick test_cnot_via_cz;
    Alcotest.test_case "cnot via iswap" `Quick test_cnot_via_iswap;
    Alcotest.test_case "swap via cz" `Quick test_swap_via_cz;
    Alcotest.test_case "swap via sqrt-iswap" `Quick test_swap_via_sqrt_iswap;
    Alcotest.test_case "native pass-through" `Quick test_native_pass_through;
    Alcotest.test_case "strategy gate choice" `Quick test_strategy_gate_choice;
    Alcotest.test_case "run only native" `Quick test_run_only_native;
    Alcotest.test_case "run preserves semantics" `Quick test_run_preserves_semantics;
    Alcotest.test_case "hybrid motivation" `Quick test_hybrid_cheaper_than_uniform;
    prop_arbitrary_circuits_preserved;
  ]
