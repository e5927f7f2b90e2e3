open Helpers

let transmon () = Transmon.create ~omega_max:7.0 ~omega_min:5.0 ()

let test_sweet_spots () =
  let t = transmon () in
  check_float ~eps:1e-9 "upper sweet spot" 7.0 (Transmon.freq_01 t ~flux:0.0);
  check_float ~eps:1e-6 "lower sweet spot" 5.0 (Transmon.freq_01 t ~flux:0.5)

let test_monotone_between_spots () =
  let t = transmon () in
  let prev = ref (Transmon.freq_01 t ~flux:0.0) in
  for k = 1 to 50 do
    let f = Transmon.freq_01 t ~flux:(0.5 *. float_of_int k /. 50.0) in
    check_true "decreasing on [0, 1/2]" (f <= !prev +. 1e-9);
    prev := f
  done

let test_periodicity () =
  let t = transmon () in
  check_float ~eps:1e-9 "period 1" (Transmon.freq_01 t ~flux:0.2) (Transmon.freq_01 t ~flux:1.2)

let test_anharmonicity () =
  let t = transmon () in
  check_float "alpha" (-0.2) (Transmon.anharmonicity t);
  check_float ~eps:1e-9 "omega12 = omega01 + alpha" (Transmon.freq_01 t ~flux:0.1 -. 0.2)
    (Transmon.freq_12 t ~flux:0.1);
  check_float ~eps:1e-9 "omega02 = 2 omega01 + alpha"
    ((2.0 *. Transmon.freq_01 t ~flux:0.1) -. 0.2)
    (Transmon.freq_02 t ~flux:0.1)

let test_flux_inverse () =
  let t = transmon () in
  List.iter
    (fun omega ->
      let flux = Transmon.flux_for_freq t omega in
      check_float ~eps:1e-6 "roundtrip" omega (Transmon.freq_01 t ~flux))
    [ 5.0; 5.5; 6.0; 6.5; 7.0 ]

let test_flux_inverse_out_of_range () =
  let t = transmon () in
  check_true "raises"
    (try
       ignore (Transmon.flux_for_freq t 8.0);
       false
     with Invalid_argument _ -> true)

let test_sensitivity_vanishes_at_sweet_spots () =
  let t = transmon () in
  let mid = Transmon.flux_sensitivity t ~flux:0.25 in
  check_true "sweet spot 0 flat" (Transmon.flux_sensitivity t ~flux:0.0 < mid /. 100.0);
  check_true "sweet spot 1/2 flat" (Transmon.flux_sensitivity t ~flux:0.5 < mid /. 100.0)

let test_create_validation () =
  check_true "omega_min >= omega_max rejected"
    (try
       ignore (Transmon.create ~omega_max:5.0 ~omega_min:6.0 ());
       false
     with Invalid_argument _ -> true)

let params ?(g = 0.03) ?(omega_a = 6.0) ?(omega_b = 6.0) () =
  { Coupled_pair.omega_a; omega_b; alpha_a = -0.2; alpha_b = -0.2; g }

let test_hamiltonian_hermitian () =
  let h = Coupled_pair.hamiltonian (params ()) in
  check_int "dim 9" 9 (Matrix.rows h);
  check_true "hermitian" (Matrix.is_hermitian h)

let test_hamiltonian_energies () =
  let p = params ~omega_a:6.0 ~omega_b:5.5 () in
  let h = Coupled_pair.hamiltonian p in
  let idx = Coupled_pair.state_index ~levels:3 in
  let e la lb = (Matrix.get h (idx la lb) (idx la lb)).Complex.re /. (2.0 *. Float.pi) in
  check_float ~eps:1e-9 "ground" 0.0 (e 0 0);
  check_float ~eps:1e-9 "|10> = omega_a" 6.0 (e 1 0);
  check_float ~eps:1e-9 "|01> = omega_b" 5.5 (e 0 1);
  (* |20> = 2 omega_a + alpha *)
  check_float ~eps:1e-9 "|20>" 11.8 (e 2 0)

let test_exchange_strength () =
  check_float ~eps:1e-12 "on resonance = g" 0.03
    (Coupled_pair.exchange_strength ~omega_a:6.0 ~omega_b:6.0 ~g:0.03);
  (* far detuned: approximately g^2 / delta *)
  let far = Coupled_pair.exchange_strength ~omega_a:7.0 ~omega_b:6.0 ~g:0.03 in
  check_float ~eps:1e-5 "dispersive limit" (0.03 ** 2.0 /. 1.0) far;
  (* symmetric in detuning sign *)
  check_float ~eps:1e-12 "symmetric" far
    (Coupled_pair.exchange_strength ~omega_a:6.0 ~omega_b:7.0 ~g:0.03)

let test_resonant_full_exchange () =
  (* on resonance, |01> fully transfers to |10> at t = 1/(4g) *)
  let p = params () in
  let h = Coupled_pair.hamiltonian p in
  let idx = Coupled_pair.state_index ~levels:3 in
  let t_swap = Coupled_pair.iswap_time ~g:0.03 in
  let prob =
    Evolution.transition_probability h ~src:(idx 0 1) ~dst:(idx 1 0) ~t:t_swap
  in
  check_float ~eps:1e-6 "full transfer" 1.0 prob;
  (* and at half that time, half transfer *)
  let prob_half =
    Evolution.transition_probability h ~src:(idx 0 1) ~dst:(idx 1 0)
      ~t:(Coupled_pair.sqrt_iswap_time ~g:0.03)
  in
  check_float ~eps:1e-6 "half transfer" 0.5 prob_half

let test_detuned_partial_exchange () =
  (* detuned by delta: max transfer = 4g^2/(4g^2 + delta^2) < 1 *)
  let g = 0.03 and delta = 0.06 in
  let p = params ~omega_a:6.06 ~omega_b:6.0 ~g () in
  let h = Coupled_pair.hamiltonian p in
  let idx = Coupled_pair.state_index ~levels:3 in
  let expected_max = 4.0 *. g *. g /. ((4.0 *. g *. g) +. (delta *. delta)) in
  let rabi = sqrt ((delta *. delta) +. (4.0 *. g *. g)) in
  let t_peak = 1.0 /. (2.0 *. rabi) in
  let prob = Evolution.transition_probability h ~src:(idx 0 1) ~dst:(idx 1 0) ~t:t_peak in
  check_float ~eps:1e-4 "detuned peak transfer" expected_max prob

let test_cz_resonance () =
  (* with omega_a = omega_b + alpha... i.e. |11> resonant with |20>:
     omega_a + omega_b = 2 omega_a + alpha_a  =>  omega_b = omega_a + alpha_a *)
  let omega_a = 6.0 in
  let omega_b = omega_a +. (-0.2) in
  let p = params ~omega_a ~omega_b () in
  let h = Coupled_pair.hamiltonian p in
  let idx = Coupled_pair.state_index ~levels:3 in
  (* transfer |11> -> |20> completes at sqrt(2) enhanced coupling *)
  let t_transfer = 1.0 /. (4.0 *. sqrt 2.0 *. 0.03) in
  let prob =
    Evolution.transition_probability h ~src:(idx 1 1) ~dst:(idx 2 0) ~t:t_transfer
  in
  check_true "strong 11-20 transfer on CZ resonance" (prob > 0.95)

let test_evolution_norm_preserved () =
  let h = Coupled_pair.hamiltonian (params ()) in
  let psi0 = Evolution.basis_state 9 4 in
  let psi = Evolution.evolve h psi0 17.3 in
  check_float ~eps:1e-8 "norm 1" 1.0 (Evolution.norm psi)

let test_transition_series_matches_pointwise () =
  let h = Coupled_pair.hamiltonian (params ()) in
  let idx = Coupled_pair.state_index ~levels:3 in
  let times = [ 0.0; 1.0; 2.5; 7.0 ] in
  let series = Evolution.transition_series h ~src:(idx 0 1) ~dst:(idx 1 0) ~times in
  List.iter
    (fun (t, p) ->
      let direct = Evolution.transition_probability h ~src:(idx 0 1) ~dst:(idx 1 0) ~t in
      check_float ~eps:1e-8 "series matches direct" direct p)
    series

let test_gate_times () =
  check_float ~eps:1e-12 "iswap" (1.0 /. 0.12) (Coupled_pair.iswap_time ~g:0.03);
  check_float ~eps:1e-12 "sqrt iswap is half" (Coupled_pair.iswap_time ~g:0.03 /. 2.0)
    (Coupled_pair.sqrt_iswap_time ~g:0.03);
  (* Appendix B: t_CZ = pi / (sqrt 2 g_angular) > t_iSWAP = pi / (2 g_angular) *)
  check_float ~eps:1e-12 "cz/iswap time ratio" (2.0 /. sqrt 2.0)
    (Coupled_pair.cz_time ~g:0.03 /. Coupled_pair.iswap_time ~g:0.03)

let prop_exchange_decreases_with_detuning =
  prop_case "exchange strength monotone in detuning" QCheck.(pair (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (d1, d2) ->
      let lo = Float.min d1 d2 and hi = Float.max d1 d2 in
      Coupled_pair.exchange_strength ~omega_a:(6.0 +. hi) ~omega_b:6.0 ~g:0.03
      <= Coupled_pair.exchange_strength ~omega_a:(6.0 +. lo) ~omega_b:6.0 ~g:0.03 +. 1e-12)

let suite =
  [
    Alcotest.test_case "sweet spots" `Quick test_sweet_spots;
    Alcotest.test_case "monotone between spots" `Quick test_monotone_between_spots;
    Alcotest.test_case "periodicity" `Quick test_periodicity;
    Alcotest.test_case "anharmonicity" `Quick test_anharmonicity;
    Alcotest.test_case "flux inverse" `Quick test_flux_inverse;
    Alcotest.test_case "flux inverse out of range" `Quick test_flux_inverse_out_of_range;
    Alcotest.test_case "sensitivity at sweet spots" `Quick test_sensitivity_vanishes_at_sweet_spots;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "hamiltonian hermitian" `Quick test_hamiltonian_hermitian;
    Alcotest.test_case "hamiltonian energies" `Quick test_hamiltonian_energies;
    Alcotest.test_case "exchange strength" `Quick test_exchange_strength;
    Alcotest.test_case "resonant full exchange" `Quick test_resonant_full_exchange;
    Alcotest.test_case "detuned partial exchange" `Quick test_detuned_partial_exchange;
    Alcotest.test_case "cz resonance" `Quick test_cz_resonance;
    Alcotest.test_case "evolution preserves norm" `Quick test_evolution_norm_preserved;
    Alcotest.test_case "transition series" `Quick test_transition_series_matches_pointwise;
    Alcotest.test_case "gate times" `Quick test_gate_times;
    prop_exchange_decreases_with_detuning;
  ]
