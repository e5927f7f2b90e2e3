open Helpers
open Fastsc_device
open Fastsc_core

let calibration ?(seed = 2020) ?(n = 3) () =
  Calibration.generate (Device.create ~seed (Topology.grid n n))

let test_shape () =
  let cal = calibration () in
  check_int "per-qubit entries" 9 (Array.length cal.Calibration.qubits);
  check_int "per-coupling entries" 12 (List.length cal.Calibration.pairs);
  check_true "mesh needs several colors" (cal.Calibration.n_colors >= 4)

let test_check_passes () =
  match Calibration.check (calibration ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_idle_at_low_sensitivity () =
  let cal = calibration () in
  (* parking sits at the common-window floor, toward (not at) each qubit's
     lower sweet spot; sensitivity must stay below the slope's peak *)
  Array.iter
    (fun qc ->
      let tr = Device.transmon cal.Calibration.device qc.Calibration.qubit in
      let peak = ref 0.0 in
      for k = 1 to 49 do
        peak :=
          Float.max !peak
            (Fastsc_physics.Transmon.flux_sensitivity tr ~flux:(0.01 *. float_of_int k))
      done;
      check_true "idle sensitivity below the slope peak"
        (qc.Calibration.idle_sensitivity < 0.95 *. !peak);
      (* and the parking flux is on the lower half of the tuning branch *)
      check_true "parked toward the low sweet spot" (qc.Calibration.idle_flux > 0.3))
    cal.Calibration.qubits

let test_cz_resonance_condition () =
  let cal = calibration () in
  List.iter
    (fun pc ->
      let _, b = pc.Calibration.pair in
      let alpha =
        Fastsc_physics.Transmon.anharmonicity (Device.transmon cal.Calibration.device b)
      in
      let first, second = pc.Calibration.cz_freqs in
      check_float ~eps:1e-9 "omega_a = omega_b + alpha_b" (second +. alpha) first)
    cal.Calibration.pairs

let test_gate_times_ordered () =
  let cal = calibration () in
  List.iter
    (fun pc ->
      check_true "sqrt-iswap fastest"
        (pc.Calibration.sqrt_iswap_time < pc.Calibration.iswap_time
        && pc.Calibration.iswap_time < pc.Calibration.cz_time))
    cal.Calibration.pairs

let test_check_detects_tampering () =
  let cal = calibration () in
  let tampered =
    {
      cal with
      Calibration.qubits =
        Array.map
          (fun qc -> { qc with Calibration.idle_flux = qc.Calibration.idle_flux +. 0.05 })
          cal.Calibration.qubits;
    }
  in
  check_true "flux tampering detected" (Result.is_error (Calibration.check tampered))

let test_json_and_pp () =
  let cal = calibration ~n:2 () in
  let text = Export.to_string (Calibration.to_json cal) in
  check_true "json nonempty" (String.length text > 100);
  check_true "pp renders" (String.length (Format.asprintf "%a" Calibration.pp cal) > 100)

let prop_all_seeds_check =
  prop_case ~count:20 "calibration checks on random devices" (int_range 1 1000)
    (fun seed ->
      Result.is_ok (Calibration.check (calibration ~seed ())))

let test_coherence_backed_evaluation () =
  let cal = calibration () in
  (* flux-noise dephasing only ever shortens T2, never lengthens it, and
     leaves T1 alone *)
  Array.iter
    (fun qc ->
      let t1, t2 = Calibration.coherence cal qc.Calibration.qubit in
      check_float "t1 untouched" qc.Calibration.t1 t1;
      check_true "t2 shortened" (t2 <= qc.Calibration.t2 && t2 > 0.0))
    cal.Calibration.qubits;
  check_true "out of range rejected"
    (try
       ignore (Calibration.coherence cal 99);
       false
     with Invalid_argument _ -> true);
  (* threading it through evaluate can only lower the success estimate *)
  let d = cal.Calibration.device in
  let s = Compile.run Compile.Color_dynamic d (Fastsc_benchmarks.Bv.circuit ~n:9 ()) in
  let bare = Schedule.evaluate s in
  let backed = Schedule.evaluate ~coherence:(Calibration.coherence cal) s in
  check_true "calibration noise costs success"
    (backed.Schedule.success <= bare.Schedule.success && backed.Schedule.success > 0.0)

let suite =
  [
    Alcotest.test_case "shape" `Quick test_shape;
    Alcotest.test_case "coherence-backed evaluation" `Quick test_coherence_backed_evaluation;
    Alcotest.test_case "check passes" `Quick test_check_passes;
    Alcotest.test_case "idle sensitivity" `Quick test_idle_at_low_sensitivity;
    Alcotest.test_case "cz resonance" `Quick test_cz_resonance_condition;
    Alcotest.test_case "gate times ordered" `Quick test_gate_times_ordered;
    Alcotest.test_case "tampering detected" `Quick test_check_detects_tampering;
    Alcotest.test_case "json and pp" `Quick test_json_and_pp;
    prop_all_seeds_check;
  ]
