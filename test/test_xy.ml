open Helpers
open Fastsc_device
open Fastsc_core

let test_xy_specializations () =
  check_true "xy(pi) = iswap"
    (equal_up_to_phase (Gate.unitary (Gate.Xy Float.pi)) (Gate.unitary Gate.Iswap));
  check_true "xy(pi/2) = sqrt_iswap"
    (equal_up_to_phase (Gate.unitary (Gate.Xy (Float.pi /. 2.0))) (Gate.unitary Gate.Sqrt_iswap));
  check_true "xy(0) = identity"
    (Matrix.approx_equal (Gate.unitary (Gate.Xy 0.0)) (Matrix.identity 4))

let test_xy_unitary_and_composition () =
  check_true "unitary" (is_unitary (Gate.unitary (Gate.Xy 0.7)));
  let composed = Matrix.mul (Gate.unitary (Gate.Xy 0.4)) (Gate.unitary (Gate.Xy 0.3)) in
  check_true "angles add" (Matrix.approx_equal ~tol:1e-9 composed (Gate.unitary (Gate.Xy 0.7)))

let test_gate_time_scales_linearly () =
  let d = Device.create ~seed:1 (Topology.grid 2 2) in
  let tuning = (Device.params d).Device.flux_tuning_time in
  let hold theta = Device.gate_time d (Gate.Xy theta) -. tuning in
  check_float ~eps:1e-9 "xy(pi) holds like iswap"
    (Device.gate_time d Gate.Iswap -. tuning)
    (hold Float.pi);
  check_float ~eps:1e-9 "half angle, half hold" (hold Float.pi /. 2.0) (hold (Float.pi /. 2.0))

let test_optimizer_fuses_xy () =
  let c = Circuit.of_gates 2 [ (Gate.Xy 0.5, [ 0; 1 ]); (Gate.Xy 0.9, [ 1; 0 ]) ] in
  let o = Optimize.run c in
  check_int "fused" 1 (Circuit.length o);
  (match (Circuit.instructions o).(0).Gate.gate with
  | Gate.Xy t -> check_float ~eps:1e-12 "sum" 1.4 t
  | g -> Alcotest.failf "expected xy, got %s" (Gate.name g));
  check_true "semantics" (Unitary.equivalent c o);
  (* full 4pi turn cancels entirely *)
  let full =
    Circuit.of_gates 2
      [ (Gate.Xy (2.0 *. Float.pi), [ 0; 1 ]); (Gate.Xy (2.0 *. Float.pi), [ 0; 1 ]) ]
  in
  check_int "4pi cancels" 0 (Circuit.length (Optimize.run full));
  (* a 2pi turn is Z(x)Z, NOT identity: must not cancel *)
  let half =
    Circuit.of_gates 2 [ (Gate.Xy Float.pi, [ 0; 1 ]); (Gate.Xy Float.pi, [ 0; 1 ]) ] in
  let oh = Optimize.run half in
  check_true "2pi does not vanish" (Circuit.length oh >= 1);
  check_true "2pi semantics" (Unitary.equivalent half oh)

let test_qasm_roundtrip () =
  let c = Circuit.of_gates 2 [ (Gate.Xy 1.25, [ 0; 1 ]) ] in
  let c' = Qasm.of_string (Qasm.to_string c) in
  match (Circuit.instructions c').(0).Gate.gate with
  | Gate.Xy t -> check_float ~eps:1e-12 "angle survives" 1.25 t
  | g -> Alcotest.failf "expected xy, got %s" (Gate.name g)

let test_schedulable () =
  let d = Device.create ~seed:3 (Topology.grid 3 3) in
  let c =
    Circuit.of_gates 9
      [ (Gate.Xy 0.8, [ 0; 1 ]); (Gate.Xy (Float.pi /. 3.0), [ 7; 8 ]); (Gate.H, [ 4 ]) ]
  in
  List.iter
    (fun algorithm ->
      let s = Compile.run algorithm d c in
      match Schedule.check s with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" (Compile.algorithm_to_string algorithm) msg)
    Compile.extended_algorithms

let test_statevector_action () =
  (* |01> -> cos(t/2)|01> - i sin(t/2)|10> *)
  let theta = 0.9 in
  let s = Statevector.create 2 in
  Statevector.apply s Gate.X [ 0 ];
  Statevector.apply s (Gate.Xy theta) [ 1; 0 ];
  check_float ~eps:1e-12 "stay" (cos (theta /. 2.0) ** 2.0) (Statevector.probability s 1);
  check_float ~eps:1e-12 "transfer" (sin (theta /. 2.0) ** 2.0) (Statevector.probability s 2)

let prop_xy_transfer_matches_physics =
  prop_case "scheduled xy hold reproduces its angle in the Hamiltonian"
    QCheck.(float_range 0.6 3.0)
    (fun theta ->
      (* two resonant transmons held for the xy hold time transfer
         sin^2(theta/2), matching the gate's matrix *)
      let g = 0.007 in
      let spec =
        {
          Fastsc_physics.Multi_transmon.freqs = [| 6.0; 6.0 |];
          alphas = [| -0.2; -0.2 |];
          couplings = [ (0, 1, g) ];
        }
      in
      let hold = Float.abs theta /. Float.pi *. Fastsc_physics.Coupled_pair.iswap_time ~g in
      let p =
        Fastsc_physics.Multi_transmon.transfer_probability spec ~from_levels:[| 0; 1 |]
          ~to_levels:[| 1; 0 |] ~t:hold
      in
      Float.abs (p -. (sin (theta /. 2.0) ** 2.0)) < 1e-3)

let suite =
  [
    Alcotest.test_case "specializations" `Quick test_xy_specializations;
    Alcotest.test_case "unitary + composition" `Quick test_xy_unitary_and_composition;
    Alcotest.test_case "gate time" `Quick test_gate_time_scales_linearly;
    Alcotest.test_case "optimizer fusion" `Quick test_optimizer_fuses_xy;
    Alcotest.test_case "qasm roundtrip" `Quick test_qasm_roundtrip;
    Alcotest.test_case "schedulable" `Quick test_schedulable;
    Alcotest.test_case "statevector action" `Quick test_statevector_action;
    prop_xy_transfer_matches_physics;
  ]
