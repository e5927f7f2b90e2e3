open Helpers

let test_exchange_unitary_limits () =
  let u0 = Noisy_sim.exchange_unitary 0.0 in
  check_true "theta=0 is identity" (Matrix.approx_equal u0 (Matrix.identity 4));
  let u_full = Noisy_sim.exchange_unitary (Float.pi /. 2.0) in
  check_true "theta=pi/2 is iswap" (Matrix.approx_equal u_full (Gate.unitary Gate.Iswap));
  check_true "always unitary" (is_unitary (Noisy_sim.exchange_unitary 0.37))

let test_noise_free_trajectory_matches_ideal () =
  let steps =
    [
      [ Noisy_sim.Unitary (Gate.H, [ 0 ]) ];
      [ Noisy_sim.Unitary (Gate.Cnot, [ 0; 1 ]) ];
    ]
  in
  let rng = Rng.create 1 in
  let final = Noisy_sim.run_trajectory rng ~n_qubits:2 steps in
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:2 steps in
  check_float ~eps:1e-12 "identical" 1.0 (Statevector.fidelity ideal final)

let test_partial_exchange_leaks () =
  (* |10> leaks into |01> with probability sin^2 theta *)
  let theta = 0.3 in
  let steps =
    [
      [ Noisy_sim.Unitary (Gate.X, [ 1 ]) ];
      [ Noisy_sim.Partial_exchange { a = 1; b = 0; theta } ];
    ]
  in
  let rng = Rng.create 2 in
  let final = Noisy_sim.run_trajectory rng ~n_qubits:2 steps in
  check_float ~eps:1e-9 "leak probability" (sin theta ** 2.0) (Statevector.probability final 1)

let test_pauli_noise_statistics () =
  (* X noise with p=0.3 on a |0> qubit flips it 30% of the time *)
  let steps = [ [ Noisy_sim.Pauli_noise { q = 0; p_x = 0.3; p_y = 0.0; p_z = 0.0 } ] ] in
  let rng = Rng.create 3 in
  let flips = ref 0 in
  let trials = 5000 in
  for _ = 1 to trials do
    let final = Noisy_sim.run_trajectory rng ~n_qubits:1 steps in
    if Statevector.probability final 1 > 0.5 then incr flips
  done;
  let rate = float_of_int !flips /. float_of_int trials in
  check_true "about 30%" (rate > 0.27 && rate < 0.33)

let test_average_fidelity_degrades_with_noise () =
  let mk p = [ [ Noisy_sim.Unitary (Gate.H, [ 0 ]) ];
               [ Noisy_sim.Pauli_noise { q = 0; p_x = p; p_y = 0.0; p_z = p } ] ]
  in
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:1 (mk 0.0) in
  let fid p =
    Noisy_sim.average_fidelity (Rng.create 4) ~n_qubits:1 ~ideal ~steps:(mk p) ~trials:800
  in
  let clean = fid 0.0 and noisy = fid 0.2 and noisier = fid 0.4 in
  check_float ~eps:1e-9 "no noise = 1" 1.0 clean;
  check_true "fidelity decreases" (noisy > noisier && clean > noisy)

(* A channel that always fires applies its Pauli exactly once, at the first
   instruction here, so every trial shares one first-hit position; a channel
   that never fires leaves every trial on the shared error-free state. *)
let test_average_fidelity_certain_and_silent_channels () =
  let certain = Noisy_sim.Pauli_noise { q = 0; p_x = 1.0; p_y = 0.0; p_z = 0.0 } in
  let silent = Noisy_sim.Pauli_noise { q = 1; p_x = 0.0; p_y = 0.0; p_z = 0.0 } in
  let gates = [ Noisy_sim.Unitary (Gate.H, [ 1 ]); Noisy_sim.Unitary (Gate.Cz, [ 0; 1 ]) ] in
  let fid ~ideal steps trials =
    Noisy_sim.average_fidelity (Rng.create 5) ~n_qubits:2 ~ideal ~steps ~trials
  in
  let flipped =
    Noisy_sim.ideal_of_steps ~n_qubits:2 [ [ Noisy_sim.Unitary (Gate.X, [ 0 ]) ]; gates ]
  in
  let clean = Noisy_sim.ideal_of_steps ~n_qubits:2 [ gates ] in
  List.iter
    (fun trials ->
      check_float ~eps:1e-12 "certain X applied once" 1.0
        (fid ~ideal:flipped [ [ certain ]; gates ] trials);
      check_float ~eps:1e-12 "silent channel" 1.0 (fid ~ideal:clean [ [ silent ]; gates; [ silent ] ] trials))
    [ 1; 7 ]

let test_average_fidelity_validation () =
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:1 [] in
  Alcotest.check_raises "trials"
    (Invalid_argument "Noisy_sim.average_fidelity: trials must be positive") (fun () ->
      ignore (Noisy_sim.average_fidelity (Rng.create 1) ~n_qubits:1 ~ideal ~steps:[] ~trials:0))

(* Malformed events are rejected while the step list is lowered, on the
   caller's domain: no trial runs and the caller's rng is not advanced. *)
let test_average_fidelity_rejects_bad_events () =
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:3 [] in
  let rejects name message event =
    let rng = Rng.create 7 in
    Alcotest.check_raises name (Invalid_argument message) (fun () ->
        ignore
          (Noisy_sim.average_fidelity rng ~n_qubits:3 ~ideal
             ~steps:[ [ Noisy_sim.Unitary (Gate.H, [ 0 ]) ]; [ event ] ]
             ~trials:8));
    check_true (name ^ ": rng untouched") (Int64.equal (Rng.int64 rng) (Rng.int64 (Rng.create 7)))
  in
  rejects "1q gate on two operands" "Noisy_sim: h applied to 2 operand(s)"
    (Noisy_sim.Unitary (Gate.H, [ 0; 1 ]));
  rejects "2q gate on one operand" "Noisy_sim: cz applied to 1 operand(s)"
    (Noisy_sim.Unitary (Gate.Cz, [ 0 ]));
  rejects "gate out of range" "Noisy_sim: cz on qubit 3, out of range for 3 qubits"
    (Noisy_sim.Unitary (Gate.Cz, [ 0; 3 ]));
  rejects "gate on a duplicate qubit" "Noisy_sim: cz on duplicate qubit 1"
    (Noisy_sim.Unitary (Gate.Cz, [ 1; 1 ]));
  rejects "exchange out of range" "Noisy_sim: partial exchange on qubit -1, out of range for 3 qubits"
    (Noisy_sim.Partial_exchange { a = -1; b = 0; theta = 0.1 });
  rejects "exchange on a duplicate qubit" "Noisy_sim: partial exchange on duplicate qubit 2"
    (Noisy_sim.Partial_exchange { a = 2; b = 2; theta = 0.1 });
  rejects "Pauli noise out of range" "Noisy_sim: Pauli noise on qubit 3, out of range for 3 qubits"
    (Noisy_sim.Pauli_noise { q = 3; p_x = 0.1; p_y = 0.0; p_z = 0.0 })

(* Pauli channels that are not probability distributions: both simulators
   reject them, the trajectories while lowering (before a trial runs or the
   rng advances), the density matrix through its Kraus checks. *)
let test_bad_pauli_probabilities_rejected_by_both () =
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:2 [] in
  List.iter
    (fun (name, (p_x, p_y, p_z)) ->
      let steps =
        [ [ Noisy_sim.Unitary (Gate.H, [ 0 ]) ]; [ Noisy_sim.Pauli_noise { q = 1; p_x; p_y; p_z } ] ]
      in
      let message =
        Printf.sprintf
          "Noisy_sim: Pauli noise on qubit 1 has probabilities (%g, %g, %g); each must be \
           non-negative and their sum at most 1"
          p_x p_y p_z
      in
      let rng = Rng.create 7 in
      Alcotest.check_raises (name ^ ": average_fidelity") (Invalid_argument message) (fun () ->
          ignore (Noisy_sim.average_fidelity rng ~n_qubits:2 ~ideal ~steps ~trials:8));
      check_true (name ^ ": rng untouched") (Int64.equal (Rng.int64 rng) (Rng.int64 (Rng.create 7)));
      Alcotest.check_raises (name ^ ": run_trajectory") (Invalid_argument message) (fun () ->
          ignore (Noisy_sim.run_trajectory (Rng.create 7) ~n_qubits:2 steps));
      check_true (name ^ ": Density.run_steps raises")
        (match Density.run_steps ~n_qubits:2 steps with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("negative", (-0.5, 0.0, 0.0));
      ("NaN", (nan, 0.0, 0.0));
      ("NaN in z", (0.1, 0.1, nan));
      ("sum above one", (0.5, 0.4, 0.2));
      ("infinite", (infinity, 0.0, 0.0));
    ]

let test_average_fidelity_rejects_ideal_size () =
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:2 [] in
  Alcotest.check_raises "ideal qubit count"
    (Invalid_argument "Noisy_sim.average_fidelity: ideal has 2 qubits, expected 3") (fun () ->
      ignore (Noisy_sim.average_fidelity (Rng.create 1) ~n_qubits:3 ~ideal ~steps:[] ~trials:4))

let test_run_trajectory_rejects_bad_events () =
  Alcotest.check_raises "trajectory validates its events too"
    (Invalid_argument "Noisy_sim: partial exchange on duplicate qubit 0") (fun () ->
      ignore
        (Noisy_sim.run_trajectory (Rng.create 1) ~n_qubits:2
           [ [ Noisy_sim.Partial_exchange { a = 0; b = 0; theta = 0.2 } ] ]))

let test_crosstalk_error_matches_eq6 () =
  (* the microscopic simulation reproduces the paper's eq 6 rate: a spectator
     pair detuned by delta for time t suffers sin^2(2 pi g' t) leakage *)
  let g0 = 0.03 and delta = 0.5 and t = 20.0 in
  let g' = g0 *. g0 /. delta in
  let theta = 2.0 *. Float.pi *. g' *. t in
  let steps =
    [
      [ Noisy_sim.Unitary (Gate.X, [ 0 ]) ];
      [ Noisy_sim.Partial_exchange { a = 1; b = 0; theta } ];
    ]
  in
  let rng = Rng.create 5 in
  let final = Noisy_sim.run_trajectory rng ~n_qubits:2 steps in
  check_float ~eps:1e-9 "leak = sin^2(theta)" (sin theta ** 2.0) (Statevector.probability final 2)

let suite =
  [
    Alcotest.test_case "exchange unitary limits" `Quick test_exchange_unitary_limits;
    Alcotest.test_case "noise-free trajectory" `Quick test_noise_free_trajectory_matches_ideal;
    Alcotest.test_case "partial exchange leaks" `Quick test_partial_exchange_leaks;
    Alcotest.test_case "pauli noise statistics" `Quick test_pauli_noise_statistics;
    Alcotest.test_case "fidelity degrades with noise" `Quick test_average_fidelity_degrades_with_noise;
    Alcotest.test_case "certain and silent channels" `Quick
      test_average_fidelity_certain_and_silent_channels;
    Alcotest.test_case "fidelity validation" `Quick test_average_fidelity_validation;
    Alcotest.test_case "crosstalk matches eq 6" `Quick test_crosstalk_error_matches_eq6;
    Alcotest.test_case "malformed events rejected before trials" `Quick
      test_average_fidelity_rejects_bad_events;
    Alcotest.test_case "bad Pauli probabilities rejected by both simulators" `Quick
      test_bad_pauli_probabilities_rejected_by_both;
    Alcotest.test_case "ideal size mismatch rejected" `Quick
      test_average_fidelity_rejects_ideal_size;
    Alcotest.test_case "trajectory rejects malformed events" `Quick
      test_run_trajectory_rejects_bad_events;
  ]
