open Helpers
open Fastsc_noise

let test_residual_coupling () =
  (* eq 5: g' = g0^2 / delta in the dispersive regime *)
  check_float ~eps:1e-12 "dispersive" 9e-4 (Crosstalk.residual_coupling ~g0:0.03 ~delta:1.0);
  check_float ~eps:1e-12 "capped on resonance" 0.03 (Crosstalk.residual_coupling ~g0:0.03 ~delta:0.0);
  check_float ~eps:1e-12 "sign insensitive" 9e-4 (Crosstalk.residual_coupling ~g0:0.03 ~delta:(-1.0))

let test_transfer_envelope () =
  check_float ~eps:1e-12 "resonant peak = 1" 1.0 (Crosstalk.transfer_envelope ~g:0.03 ~delta:0.0);
  let env = Crosstalk.transfer_envelope ~g:0.03 ~delta:0.3 in
  check_true "detuned peak < 1" (env < 0.05);
  check_float ~eps:1e-9 "formula" (4.0 *. 0.03 ** 2.0 /. ((4.0 *. 0.03 ** 2.0) +. 0.09)) env

let test_transfer_probability_bounds () =
  for i = 0 to 50 do
    let t = float_of_int i in
    let p = Crosstalk.transfer_probability ~g:0.03 ~delta:0.1 ~t in
    check_true "within envelope"
      (p >= -.1e-12 && p <= Crosstalk.transfer_envelope ~g:0.03 ~delta:0.1 +. 1e-12)
  done

let test_transfer_resonant_full () =
  (* on resonance, full transfer at t = 1/(4g) *)
  check_float ~eps:1e-9 "full swap" 1.0
    (Crosstalk.transfer_probability ~g:0.03 ~delta:0.0 ~t:(1.0 /. 0.12))

let test_channels () =
  let chs = Crosstalk.channels ~alpha_a:(-0.2) ~alpha_b:(-0.2) ~g:0.03 ~omega_a:6.0 ~omega_b:5.8 in
  check_int "three channels" 3 (List.length chs);
  (* omega_a + alpha_a = 5.8 = omega_b: the 12-01 channel is resonant *)
  let resonant = List.find (fun c -> c.Crosstalk.label = "12-01") chs in
  check_float ~eps:1e-12 "sideband resonance" 0.0 resonant.Crosstalk.delta;
  check_float ~eps:1e-12 "sqrt2 coupling" (sqrt 2.0 *. 0.03) resonant.Crosstalk.g

let test_pair_error_sideband_trap () =
  (* parking a qubit exactly one anharmonicity below its neighbour is a
     leakage trap: the worst-case error saturates, while a detuning far from
     every channel stays small *)
  let err omega_b =
    Crosstalk.pair_error ~worst_case:true ~alpha_a:(-0.2) ~alpha_b:(-0.2) ~g:0.03 ~omega_a:6.0
      ~omega_b ~t:10.0 ()
  in
  check_true "trap saturates" (err 5.8 > 0.9);
  check_true "generic detuning is mild" (err 5.5 < 0.3);
  check_true "trap dominates" (err 5.8 > 3.0 *. err 5.5)

let test_pair_error_zero_coupling () =
  check_float "no coupling, no error" 0.0
    (Crosstalk.pair_error ~alpha_a:(-0.2) ~alpha_b:(-0.2) ~g:0.0 ~omega_a:6.0 ~omega_b:6.0
       ~t:100.0 ())

let test_pair_error_worst_case_dominates () =
  let wc =
    Crosstalk.pair_error ~worst_case:true ~alpha_a:(-0.2) ~alpha_b:(-0.2) ~g:0.03 ~omega_a:6.0
      ~omega_b:5.9 ~t:7.0 ()
  in
  let timed =
    Crosstalk.pair_error ~alpha_a:(-0.2) ~alpha_b:(-0.2) ~g:0.03 ~omega_a:6.0 ~omega_b:5.9
      ~t:7.0 ()
  in
  check_true "envelope bounds the timed value" (wc >= timed -. 1e-12)

let test_pair_error_cache () =
  Crosstalk.reset_pair_cache ();
  let eval () =
    Crosstalk.pair_error ~alpha_a:(-0.2) ~alpha_b:(-0.2) ~g:0.03 ~omega_a:6.0 ~omega_b:5.8
      ~t:50.0 ()
  in
  let fresh = eval () in
  let stats = Crosstalk.pair_cache_stats () in
  check_true "first evaluation misses" (stats.Crosstalk.misses >= 1);
  let cached = eval () in
  let stats' = Crosstalk.pair_cache_stats () in
  check_true "second evaluation hits" (stats'.Crosstalk.hits > stats.Crosstalk.hits);
  (* hits must be bit-identical, not merely close *)
  check_true "cached value bit-identical" (Int64.bits_of_float fresh = Int64.bits_of_float cached);
  (* a different key is a miss, never a near-match hit *)
  let other =
    Crosstalk.pair_error ~alpha_a:(-0.2) ~alpha_b:(-0.2) ~g:0.03 ~omega_a:6.0 ~omega_b:5.80001
      ~t:50.0 ()
  in
  let stats'' = Crosstalk.pair_cache_stats () in
  check_true "perturbed key misses" (stats''.Crosstalk.misses > stats'.Crosstalk.misses);
  check_true "and computes its own value" (other <> fresh)

let test_decoherence_models () =
  let combined = Decoherence.error ~t1:30000.0 ~t2:20000.0 ~t:1000.0 () in
  let expected = (1.0 -. exp (-1000.0 /. 30000.0)) *. (1.0 -. exp (-1000.0 /. 20000.0)) in
  check_float ~eps:1e-12 "combined" expected combined;
  let expo = Decoherence.error ~model:Decoherence.Exponential ~t1:30000.0 ~t2:20000.0 ~t:1000.0 () in
  check_float ~eps:1e-12 "exponential"
    (1.0 -. (exp (-1000.0 /. 30000.0) *. exp (-1000.0 /. 20000.0)))
    expo;
  check_float "zero time" 0.0 (Decoherence.error ~t1:100.0 ~t2:100.0 ~t:0.0 ());
  check_true "monotone"
    (Decoherence.error ~t1:100.0 ~t2:100.0 ~t:50.0 ()
    < Decoherence.error ~t1:100.0 ~t2:100.0 ~t:100.0 ())

let test_decoherence_validation () =
  Alcotest.check_raises "bad t1" (Invalid_argument "Decoherence: T1 and T2 must be positive")
    (fun () -> ignore (Decoherence.error ~t1:0.0 ~t2:1.0 ~t:1.0 ()));
  Alcotest.check_raises "negative t" (Invalid_argument "Decoherence: negative duration")
    (fun () -> ignore (Decoherence.error ~t1:1.0 ~t2:1.0 ~t:(-1.0) ()))

let test_pauli_rates () =
  let p_x, p_y, p_z = Decoherence.pauli_rates ~t1:30000.0 ~t2:20000.0 ~t:100.0 in
  check_true "all non-negative" (p_x >= 0.0 && p_y >= 0.0 && p_z >= 0.0);
  check_float ~eps:1e-12 "x = y" p_x p_y;
  check_true "sub-unit total" (p_x +. p_y +. p_z < 1.0);
  (* T2 limited by 2*T1: pure dephasing floor at zero *)
  let _, _, p_z2 = Decoherence.pauli_rates ~t1:100.0 ~t2:200.0 ~t:50.0 in
  check_float "no negative dephasing" 0.0 p_z2

let test_success_accumulator () =
  let acc = Success.create () in
  Success.add_errors acc [ 0.1; 0.2 ];
  check_float ~eps:1e-12 "product" (0.9 *. 0.8) (Success.probability acc);
  check_int "terms" 2 (Success.n_terms acc);
  check_float ~eps:1e-12 "log10" (log10 0.72) (Success.log10_probability acc)

let test_success_saturation () =
  let acc = Success.create () in
  Success.add_error acc 1.0;
  check_float "zero" 0.0 (Success.probability acc);
  check_true "log is -inf" (Success.log10_probability acc = neg_infinity)

let test_success_clamps_negative () =
  let acc = Success.create () in
  Success.add_error acc (-0.5);
  check_float ~eps:1e-12 "clamped to 0" 1.0 (Success.probability acc)

let test_success_combine () =
  let a = Success.create () and b = Success.create () in
  Success.add_error a 0.5;
  Success.add_error b 0.5;
  check_float ~eps:1e-12 "combined" 0.25 (Success.probability (Success.combine a b))

let test_success_no_underflow () =
  (* 100k small errors: the log-space accumulator must not flush to zero *)
  let acc = Success.create () in
  for _ = 1 to 100_000 do
    Success.add_error acc 0.01
  done;
  check_true "finite log" (Float.is_finite (Success.log10_probability acc));
  check_float ~eps:1.0 "log value" (100_000.0 *. log10 0.99) (Success.log10_probability acc)

let prop_of_errors_matches_product =
  prop_case "of_errors = naive product" QCheck.(list_of_size (Gen.int_range 0 20) (float_range 0.0 0.5))
    (fun errors ->
      let expected = List.fold_left (fun acc e -> acc *. (1.0 -. e)) 1.0 errors in
      Float.abs (Success.of_errors errors -. expected) < 1e-9)

let suite =
  [
    Alcotest.test_case "residual coupling eq5" `Quick test_residual_coupling;
    Alcotest.test_case "transfer envelope" `Quick test_transfer_envelope;
    Alcotest.test_case "transfer bounds" `Quick test_transfer_probability_bounds;
    Alcotest.test_case "resonant full transfer" `Quick test_transfer_resonant_full;
    Alcotest.test_case "channels" `Quick test_channels;
    Alcotest.test_case "sideband trap" `Quick test_pair_error_sideband_trap;
    Alcotest.test_case "zero coupling" `Quick test_pair_error_zero_coupling;
    Alcotest.test_case "worst case dominates" `Quick test_pair_error_worst_case_dominates;
    Alcotest.test_case "pair error cache" `Quick test_pair_error_cache;
    Alcotest.test_case "decoherence models" `Quick test_decoherence_models;
    Alcotest.test_case "decoherence validation" `Quick test_decoherence_validation;
    Alcotest.test_case "pauli rates" `Quick test_pauli_rates;
    Alcotest.test_case "success accumulator" `Quick test_success_accumulator;
    Alcotest.test_case "success saturation" `Quick test_success_saturation;
    Alcotest.test_case "success clamps" `Quick test_success_clamps_negative;
    Alcotest.test_case "success combine" `Quick test_success_combine;
    Alcotest.test_case "success no underflow" `Quick test_success_no_underflow;
    prop_of_errors_matches_product;
  ]
