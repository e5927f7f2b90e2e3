open Helpers

let test_initial_state () =
  let rho = Density.create 2 in
  check_float ~eps:1e-12 "trace" 1.0 (Density.trace rho);
  check_float ~eps:1e-12 "pure" 1.0 (Density.purity rho);
  check_float ~eps:1e-12 "in |00>" 1.0 (Density.population rho 0)

let test_matches_statevector_on_unitaries () =
  let rho = Density.create 3 in
  let sv = Statevector.create 3 in
  let gates = [ (Gate.H, [ 0 ]); (Gate.Cnot, [ 0; 1 ]); (Gate.T, [ 2 ]); (Gate.Iswap, [ 1; 2 ]) ] in
  List.iter
    (fun (g, qs) ->
      Density.apply_gate rho g qs;
      Statevector.apply sv g qs)
    gates;
  check_float ~eps:1e-9 "still pure" 1.0 (Density.purity rho);
  check_float ~eps:1e-9 "fidelity with the statevector" 1.0 (Density.fidelity_pure rho sv);
  (* populations agree *)
  Array.iteri
    (fun k p -> check_float ~eps:1e-9 "population" p (Density.population rho k))
    (Statevector.probabilities sv)

let test_of_statevector () =
  let sv = Statevector.create 2 in
  Statevector.apply sv Gate.H [ 0 ];
  let rho = Density.of_statevector sv in
  check_float ~eps:1e-12 "pure" 1.0 (Density.purity rho);
  check_float ~eps:1e-12 "p0" 0.5 (Density.population rho 0)

let test_amplitude_damping () =
  let rho = Density.create 1 in
  Density.apply_gate rho Gate.X [ 0 ];
  (* |1> decays toward |0> *)
  Density.apply_kraus1 rho (Density.amplitude_damping ~gamma:0.3) 0;
  check_float ~eps:1e-12 "trace preserved" 1.0 (Density.trace rho);
  check_float ~eps:1e-12 "decayed" 0.3 (Density.population rho 0);
  check_float ~eps:1e-12 "remaining" 0.7 (Density.population rho 1)

let test_phase_damping_kills_coherence () =
  let rho = Density.create 1 in
  Density.apply_gate rho Gate.H [ 0 ];
  let before = Density.purity rho in
  Density.apply_kraus1 rho (Density.phase_damping ~lambda:1.0) 0;
  check_float ~eps:1e-12 "populations untouched" 0.5 (Density.population rho 0);
  check_true "purity lost" (Density.purity rho < before -. 0.4);
  check_float ~eps:1e-9 "maximally mixed" 0.5 (Density.purity rho)

let test_thermal_relaxation_long_time () =
  let rho = Density.create 1 in
  Density.apply_gate rho Gate.X [ 0 ];
  Density.thermal_relaxation rho ~q:0 ~t1:100.0 ~t2:80.0 ~time:100_000.0;
  (* t >> T1: relaxed to the ground state *)
  check_float ~eps:1e-6 "ground state" 1.0 (Density.population rho 0);
  check_float ~eps:1e-6 "pure again" 1.0 (Density.purity rho)

let test_kraus_completeness_checked () =
  let rho = Density.create 1 in
  let bad = [ Matrix.scale_re 0.5 (Matrix.identity 2) ] in
  Alcotest.check_raises "incomplete"
    (Invalid_argument "Density.apply_kraus1: Kraus operators do not sum to identity")
    (fun () -> Density.apply_kraus1 rho bad 0)

let test_agrees_with_trajectory_average () =
  (* same lowered steps: the density matrix must match the trajectory
     average within sampling error *)
  let steps =
    [
      [ Noisy_sim.Unitary (Gate.H, [ 0 ]); Noisy_sim.Unitary (Gate.X, [ 1 ]) ];
      [
        Noisy_sim.Unitary (Gate.Cnot, [ 0; 1 ]);
        Noisy_sim.Pauli_noise { q = 0; p_x = 0.05; p_y = 0.02; p_z = 0.08 };
        Noisy_sim.Pauli_noise { q = 1; p_x = 0.03; p_y = 0.0; p_z = 0.1 };
      ];
      [ Noisy_sim.Partial_exchange { a = 0; b = 1; theta = 0.4 } ];
    ]
  in
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:2 steps in
  let exact = Density.fidelity_pure (Density.run_steps ~n_qubits:2 steps) ideal in
  let sampled =
    Noisy_sim.average_fidelity (Rng.create 11) ~n_qubits:2 ~ideal ~steps ~trials:4000
  in
  check_true "exact within sampling error of trajectories"
    (Float.abs (exact -. sampled) < 0.03)

let test_trace_preserved_through_everything () =
  let steps =
    [
      [ Noisy_sim.Unitary (Gate.H, [ 0 ]) ];
      [ Noisy_sim.Pauli_noise { q = 0; p_x = 0.2; p_y = 0.1; p_z = 0.15 } ];
      [ Noisy_sim.Partial_exchange { a = 0; b = 1; theta = 1.0 } ];
    ]
  in
  let rho = Density.run_steps ~n_qubits:2 steps in
  check_float ~eps:1e-9 "trace" 1.0 (Density.trace rho)

let test_unitary2_ordering_convention () =
  (* CNOT with control = first operand, matching Statevector *)
  let rho = Density.create 2 in
  Density.apply_gate rho Gate.X [ 1 ];
  Density.apply_gate rho Gate.Cnot [ 1; 0 ];
  check_float ~eps:1e-12 "controlled flip" 1.0 (Density.population rho 3)

(* A generic complex 2^n x 2^n matrix: neither Hermitian nor positive, so
   every entry's re and im parts move independently through a kernel. *)
let random_matrix rng n =
  let d = 1 lsl n in
  Density.of_matrix
    (Matrix.init d d (fun _ _ ->
         { Complex.re = Rng.uniform rng (-1.0) 1.0; im = Rng.uniform rng (-1.0) 1.0 }))

(* Float [=] entry by entry: +0 and -0 compare equal, the one difference that
   dropping exact-zero products may make. *)
let same_entries a b =
  let ar, ai = Matrix.buffers (Density.to_matrix a) in
  let br, bi = Matrix.buffers (Density.to_matrix b) in
  let ok = ref true in
  Array.iteri (fun k x -> if x <> br.(k) || ai.(k) <> bi.(k) then ok := false) ar;
  !ok

let copy t = Density.of_matrix (Density.to_matrix t)

(* The route the closed-form channel replaced: the bound on p_0, then
   apply_kraus1 on the four scaled Paulis. *)
let kraus_pauli t ~p_x ~p_y ~p_z q =
  if 1.0 -. p_x -. p_y -. p_z < -1e-12 then
    invalid_arg "Density.pauli_channel: probabilities exceed 1";
  let scaled p g = Matrix.scale_re (sqrt (Float.max 0.0 p)) (Gate.unitary g) in
  Density.apply_kraus1 t
    [ scaled (1.0 -. p_x -. p_y -. p_z) Gate.I; scaled p_x Gate.X; scaled p_y Gate.Y; scaled p_z Gate.Z ]
    q

(* Channel probabilities: exact zeros, tiny (~1e-5) and up to 0.3; one case
   in four puts p_0 just below zero, inside the 1e-12 the bound allows. *)
let random_probabilities rng =
  let p () =
    match Rng.int rng 3 with
    | 0 -> 0.0
    | 1 -> Rng.float rng *. 2e-5
    | _ -> Rng.float rng *. 0.3
  in
  let p_x = p () in
  let p_y = p () in
  if Rng.int rng 4 = 0 then (p_x, p_y, 1.0 -. p_x -. p_y +. 1e-13 +. (Rng.float rng *. 8e-13))
  else (p_x, p_y, p ())

let prop_pauli_matches_kraus =
  prop_case ~count:100 "closed-form Pauli channel equals apply_kraus1 under float ="
    (QCheck.pair (int_range 1 5) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let rho = random_matrix rng n in
      List.for_all
        (fun q ->
          let p_x, p_y, p_z = random_probabilities rng in
          let p0 = 1.0 -. p_x -. p_y -. p_z in
          let got = copy rho and want = copy rho in
          Density.apply_pauli got ~p_x ~p_y ~p_z q;
          kraus_pauli want ~p_x ~p_y ~p_z q;
          p0 > -1e-12 && same_entries got want)
        (List.init n Fun.id))

let prop_exchange_matches_dense =
  prop_case ~count:100 "density-local exchange equals the dense conjugation under float ="
    (QCheck.pair (int_range 2 5) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let rho = random_matrix rng n in
      let qubits = List.init n Fun.id in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              a = b
              ||
              let theta = random_theta rng in
              let got = copy rho and want = copy rho in
              Density.apply_exchange got ~theta a b;
              Density.apply_unitary2 want (Noisy_sim.exchange_unitary theta) a b;
              same_entries got want)
            qubits)
        qubits)

(* run_steps against the route it replaced, event by event: the dense
   exchange and the Kraus channel.  Every input must end the same way, with
   the same matrix or the same Invalid_argument message; the first events
   make the state generic enough that every kernel moves bits. *)
let dense_run_steps ~n_qubits steps =
  let t = Density.create n_qubits in
  List.iter
    (List.iter (function
      | Noisy_sim.Unitary (gate, qubits) -> Density.apply_gate t gate qubits
      | Noisy_sim.Partial_exchange { a; b; theta } ->
        Density.apply_unitary2 t (Noisy_sim.exchange_unitary theta) a b
      | Noisy_sim.Pauli_noise { q; p_x; p_y; p_z } -> kraus_pauli t ~p_x ~p_y ~p_z q))
    steps;
  t

let test_run_steps_checks_unchanged () =
  let outcome run =
    match run () with t -> Ok t | exception Invalid_argument message -> Error message
  in
  let prefix =
    [
      [ Noisy_sim.Unitary (Gate.H, [ 0 ]); Noisy_sim.Unitary (Gate.Sx, [ 1 ]) ];
      [ Noisy_sim.Pauli_noise { q = 0; p_x = 0.1; p_y = 0.05; p_z = 0.2 } ];
      [ Noisy_sim.Partial_exchange { a = 0; b = 1; theta = 0.7 } ];
    ]
  in
  let same name ?expect event =
    let steps = prefix @ [ [ event ] ] in
    let got = outcome (fun () -> Density.run_steps ~n_qubits:2 steps) in
    let want = outcome (fun () -> dense_run_steps ~n_qubits:2 steps) in
    (match (got, want) with
    | Ok g, Ok w -> check_true (name ^ ": same matrix") (same_entries g w)
    | Error g, Error w -> Alcotest.(check string) (name ^ ": same message") w g
    | Ok _, Error w -> Alcotest.failf "%s: run_steps accepts what the Kraus route rejects (%s)" name w
    | Error g, Ok _ -> Alcotest.failf "%s: run_steps rejects what the Kraus route accepts (%s)" name g);
    Option.iter
      (fun message ->
        Alcotest.(check (result pass string)) (name ^ ": message") (Error message) got)
      expect
  in
  let pauli ?(q = 1) (p_x, p_y, p_z) = Noisy_sim.Pauli_noise { q; p_x; p_y; p_z } in
  let exchange a b = Noisy_sim.Partial_exchange { a; b; theta = 0.3 } in
  let range q = Printf.sprintf "Density: qubit %d out of range" q in
  let exceed = "Density.pauli_channel: probabilities exceed 1" in
  let incomplete = "Density.apply_kraus1: Kraus operators do not sum to identity" in
  let duplicate = "Density.apply_unitary2: duplicate qubit" in
  same "valid channel" (pauli (0.1, 0.2, 0.3));
  same "certain channel" (pauli (0.25, 0.25, 0.5));
  same "silent channel" (pauli (0.0, -0.0, 0.0));
  same "p0 just below zero" (pauli (0.5, 0.5, 5e-13));
  same "slightly negative p_x" (pauli (-1e-7, 0.0, 0.0));
  same "p0 below the bound" ~expect:exceed (pauli (0.5, 0.5, 2e-12));
  same "negative p_x" ~expect:incomplete (pauli (-0.5, 0.0, 0.0));
  same "negative p_y" ~expect:incomplete (pauli (0.1, -2e-6, 0.0));
  same "NaN p_x" ~expect:incomplete (pauli (nan, 0.0, 0.0));
  same "NaN p_z" ~expect:incomplete (pauli (0.1, 0.1, nan));
  same "infinite p_x" ~expect:exceed (pauli (infinity, 0.0, 0.0));
  same "negative infinite p_x" ~expect:incomplete (pauli (neg_infinity, 0.0, 0.0));
  same "p0 NaN" ~expect:incomplete (pauli (neg_infinity, infinity, 0.0));
  same "Pauli qubit out of range" ~expect:(range 2) (pauli ~q:2 (0.1, 0.0, 0.0));
  same "range after the bound" ~expect:exceed (pauli ~q:2 (0.9, 0.9, 0.0));
  same "range before completeness" ~expect:(range (-1)) (pauli ~q:(-1) (-0.5, 0.0, 0.0));
  same "exchange a out of range" ~expect:(range (-1)) (exchange (-1) 0);
  same "exchange b out of range" ~expect:(range 2) (exchange 0 2);
  same "exchange both out of range" ~expect:(range 3) (exchange 3 3);
  same "exchange duplicate" ~expect:duplicate (exchange 1 1);
  (* The completeness bound itself, |sum_k s_k s_k - 1| <= 1e-6, which only a
     clamped negative probability can reach: probes a few ulps either side. *)
  for k = -40 to 40 do
    let near = -1e-6 +. (float_of_int k *. 5e-17) in
    same (Printf.sprintf "bound probe %d" k) (pauli (near, 0.0, 0.0));
    same (Printf.sprintf "bound probe %d among others" k) (pauli (0.3, near, 0.2))
  done

let prop_purity_bounded =
  prop_case ~count:40 "purity stays in [1/2^n, 1]" (int_range 1 10_000) (fun seed ->
      let rng = Rng.create seed in
      let rho = Density.create 2 in
      for _ = 1 to 6 do
        match Rng.int rng 3 with
        | 0 -> Density.apply_gate rho Gate.H [ Rng.int rng 2 ]
        | 1 ->
          Density.apply_kraus1 rho
            (Density.amplitude_damping ~gamma:(Rng.float rng *. 0.5))
            (Rng.int rng 2)
        | _ -> Density.apply_gate rho Gate.Cz [ 0; 1 ]
      done;
      let p = Density.purity rho in
      p <= 1.0 +. 1e-9 && p >= 0.25 -. 1e-9 && Float.abs (Density.trace rho -. 1.0) < 1e-9)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "matches statevector" `Quick test_matches_statevector_on_unitaries;
    Alcotest.test_case "of statevector" `Quick test_of_statevector;
    Alcotest.test_case "amplitude damping" `Quick test_amplitude_damping;
    Alcotest.test_case "phase damping" `Quick test_phase_damping_kills_coherence;
    Alcotest.test_case "thermal relaxation" `Quick test_thermal_relaxation_long_time;
    Alcotest.test_case "kraus completeness" `Quick test_kraus_completeness_checked;
    Alcotest.test_case "agrees with trajectories" `Quick test_agrees_with_trajectory_average;
    Alcotest.test_case "trace preserved" `Quick test_trace_preserved_through_everything;
    Alcotest.test_case "operand convention" `Quick test_unitary2_ordering_convention;
    prop_pauli_matches_kraus;
    prop_exchange_matches_dense;
    Alcotest.test_case "run_steps checks unchanged" `Quick test_run_steps_checks_unchanged;
    prop_purity_bounded;
  ]
