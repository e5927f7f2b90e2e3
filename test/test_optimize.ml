open Helpers

let check_equivalent name circuit =
  let optimized = Optimize.run circuit in
  check_circuits_equivalent (name ^ " semantics") circuit optimized;
  optimized

let test_double_h_cancels () =
  let c = Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.H, [ 0 ]); (Gate.X, [ 1 ]) ] in
  let o = check_equivalent "hh" c in
  check_int "only x survives" 1 (Circuit.length o)

let test_pauli_pairs_cancel () =
  let c =
    Circuit.of_gates 1
      [ (Gate.X, [ 0 ]); (Gate.X, [ 0 ]); (Gate.Y, [ 0 ]); (Gate.Y, [ 0 ]); (Gate.Z, [ 0 ]); (Gate.Z, [ 0 ]) ]
  in
  check_int "all gone" 0 (Circuit.length (check_equivalent "paulis" c))

let test_rotation_fusion () =
  let c = Circuit.of_gates 1 [ (Gate.Rz 0.4, [ 0 ]); (Gate.Rz 0.5, [ 0 ]) ] in
  let o = check_equivalent "rz fusion" c in
  check_int "one gate" 1 (Circuit.length o);
  match (Circuit.instructions o).(0).Gate.gate with
  | Gate.Rz t -> check_float ~eps:1e-12 "angle" 0.9 t
  | g -> Alcotest.failf "expected rz, got %s" (Gate.name g)

let test_rotation_fusion_to_zero () =
  let c = Circuit.of_gates 1 [ (Gate.Rx 0.7, [ 0 ]); (Gate.Rx (-0.7), [ 0 ]) ] in
  check_int "vanishes" 0 (Circuit.length (check_equivalent "rx zero" c))

let test_full_turn_removed () =
  let c = Circuit.of_gates 1 [ (Gate.Ry (2.0 *. Float.pi), [ 0 ]) ] in
  check_int "2pi rotation dropped" 0 (Circuit.length (Optimize.run c))

let test_identity_dropped () =
  let c = Circuit.of_gates 2 [ (Gate.I, [ 0 ]); (Gate.Cz, [ 0; 1 ]) ] in
  check_int "i dropped" 1 (Circuit.length (check_equivalent "identity" c))

let test_s_t_chains () =
  let c = Circuit.of_gates 1 [ (Gate.T, [ 0 ]); (Gate.T, [ 0 ]); (Gate.S, [ 0 ]) ] in
  (* T T -> S; S S -> Z *)
  let o = check_equivalent "tts" c in
  check_int "one gate" 1 (Circuit.length o);
  check_true "is z" ((Circuit.instructions o).(0).Gate.gate = Gate.Z)

let test_s_sdg_cancel () =
  let c = Circuit.of_gates 1 [ (Gate.S, [ 0 ]); (Gate.Sdg, [ 0 ]) ] in
  check_int "cancels" 0 (Circuit.length (check_equivalent "s sdg" c))

let test_cz_cancel_any_order () =
  let c = Circuit.of_gates 2 [ (Gate.Cz, [ 0; 1 ]); (Gate.Cz, [ 1; 0 ]) ] in
  check_int "cz pair" 0 (Circuit.length (check_equivalent "cz" c))

let test_cnot_orientation_matters () =
  let c = Circuit.of_gates 2 [ (Gate.Cnot, [ 0; 1 ]); (Gate.Cnot, [ 1; 0 ]) ] in
  let o = check_equivalent "cnot reversed" c in
  check_int "not cancelled" 2 (Circuit.length o);
  let c2 = Circuit.of_gates 2 [ (Gate.Cnot, [ 0; 1 ]); (Gate.Cnot, [ 0; 1 ]) ] in
  check_int "same orientation cancels" 0 (Circuit.length (check_equivalent "cnot same" c2))

let test_sqrt_iswap_fuses_to_iswap () =
  let c = Circuit.of_gates 2 [ (Gate.Sqrt_iswap, [ 0; 1 ]); (Gate.Sqrt_iswap, [ 0; 1 ]) ] in
  let o = check_equivalent "sqrt fuse" c in
  check_int "one gate" 1 (Circuit.length o);
  check_true "is iswap" ((Circuit.instructions o).(0).Gate.gate = Gate.Iswap)

let test_iswap_pair_to_zz () =
  let c = Circuit.of_gates 2 [ (Gate.Iswap, [ 0; 1 ]); (Gate.Iswap, [ 0; 1 ]) ] in
  let o = check_equivalent "iswap pair" c in
  check_int "two 1q gates" 2 (Circuit.length o);
  check_int "no 2q left" 0 (Circuit.n_two_qubit o)

let test_blocked_by_intervening_gate () =
  (* H . X . H on the same qubit must NOT cancel the Hs *)
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]); (Gate.X, [ 0 ]); (Gate.H, [ 0 ]) ] in
  check_int "nothing removed" 3 (Circuit.length (check_equivalent "blocked" c))

let test_commuting_past_other_wires () =
  (* H0 . X1 . H0: the X on qubit 1 does not block cancellation on qubit 0 *)
  let c = Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.X, [ 1 ]); (Gate.H, [ 0 ]) ] in
  check_int "hs cancel across wires" 1 (Circuit.length (check_equivalent "wires" c))

let test_partial_2q_overlap_blocks () =
  (* CZ(0,1) . H(1) . CZ(0,1): the H blocks the CZ pair *)
  let c =
    Circuit.of_gates 2 [ (Gate.Cz, [ 0; 1 ]); (Gate.H, [ 1 ]); (Gate.Cz, [ 0; 1 ]) ]
  in
  check_int "blocked" 3 (Circuit.length (check_equivalent "2q blocked" c))

let test_chain_collapse () =
  (* a long alternating chain collapses to nothing over several passes *)
  let c =
    Circuit.of_gates 1
      [ (Gate.H, [ 0 ]); (Gate.X, [ 0 ]); (Gate.X, [ 0 ]); (Gate.H, [ 0 ]) ]
  in
  check_int "nested cancellation" 0 (Circuit.length (check_equivalent "chain" c))

let test_removed_helper () =
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]); (Gate.H, [ 0 ]) ] in
  check_int "removed" 2 (Optimize.removed c (Optimize.run c))

let test_decomposed_swap_shrinks () =
  (* CZ-decomposed SWAP.SWAP collapses completely through cascading
     H/H and CZ/CZ cancellations at the junction *)
  let c = Circuit.of_gates 2 [ (Gate.Swap, [ 0; 1 ]); (Gate.Swap, [ 0; 1 ]) ] in
  let native = Decompose.run Decompose.All_cz c in
  let o = check_equivalent "double swap" native in
  check_int "fully cancelled" 0 (Circuit.length o)

let random_circuit seed =
  let rng = Rng.create seed in
  let b = Circuit.builder 3 in
  for _ = 1 to 25 do
    match Rng.int rng 8 with
    | 0 -> Circuit.add b Gate.H [ Rng.int rng 3 ]
    | 1 -> Circuit.add b Gate.X [ Rng.int rng 3 ]
    | 2 -> Circuit.add b (Gate.Rz (Rng.uniform rng (-4.0) 4.0)) [ Rng.int rng 3 ]
    | 3 -> Circuit.add b (Gate.Rx (Rng.uniform rng (-4.0) 4.0)) [ Rng.int rng 3 ]
    | 4 -> Circuit.add b Gate.S [ Rng.int rng 3 ]
    | 5 -> Circuit.add b Gate.T [ Rng.int rng 3 ]
    | 6 ->
      let a = Rng.int rng 3 in
      Circuit.add b Gate.Cz [ a; (a + 1 + Rng.int rng 2) mod 3 ]
    | _ ->
      let a = Rng.int rng 3 in
      Circuit.add b Gate.Cnot [ a; (a + 1 + Rng.int rng 2) mod 3 ]
  done;
  Circuit.finish b

let prop_semantics_preserved =
  prop_case ~count:60 "optimization preserves unitaries" (int_range 1 100_000)
    (fun seed ->
      let c = random_circuit seed in
      equal_up_to_phase (circuit_unitary (Optimize.run c)) (circuit_unitary c))

let prop_never_grows =
  prop_case ~count:60 "optimization never grows a circuit" (int_range 1 100_000)
    (fun seed ->
      let c = random_circuit seed in
      Circuit.length (Optimize.run c) <= Circuit.length c)

let prop_idempotent =
  prop_case ~count:60 "optimization is idempotent" (int_range 1 100_000)
    (fun seed ->
      let once = Optimize.run (random_circuit seed) in
      Circuit.length (Optimize.run once) = Circuit.length once)

let suite =
  [
    Alcotest.test_case "double h" `Quick test_double_h_cancels;
    Alcotest.test_case "pauli pairs" `Quick test_pauli_pairs_cancel;
    Alcotest.test_case "rotation fusion" `Quick test_rotation_fusion;
    Alcotest.test_case "rotation fusion to zero" `Quick test_rotation_fusion_to_zero;
    Alcotest.test_case "full turn removed" `Quick test_full_turn_removed;
    Alcotest.test_case "identity dropped" `Quick test_identity_dropped;
    Alcotest.test_case "s/t chains" `Quick test_s_t_chains;
    Alcotest.test_case "s sdg cancel" `Quick test_s_sdg_cancel;
    Alcotest.test_case "cz any order" `Quick test_cz_cancel_any_order;
    Alcotest.test_case "cnot orientation" `Quick test_cnot_orientation_matters;
    Alcotest.test_case "sqrt iswap fusion" `Quick test_sqrt_iswap_fuses_to_iswap;
    Alcotest.test_case "iswap pair to zz" `Quick test_iswap_pair_to_zz;
    Alcotest.test_case "blocked by gate" `Quick test_blocked_by_intervening_gate;
    Alcotest.test_case "commutes past wires" `Quick test_commuting_past_other_wires;
    Alcotest.test_case "partial overlap blocks" `Quick test_partial_2q_overlap_blocks;
    Alcotest.test_case "chain collapse" `Quick test_chain_collapse;
    Alcotest.test_case "removed helper" `Quick test_removed_helper;
    Alcotest.test_case "double swap shrinks" `Quick test_decomposed_swap_shrinks;
    prop_semantics_preserved;
    prop_never_grows;
    prop_idempotent;
  ]
