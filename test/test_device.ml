open Helpers
open Fastsc_device

let device ?(seed = 7) ?(n = 3) () = Device.create ~seed (Topology.grid n n)

let test_partition_make () =
  let p = Partition.make ~lo:5.0 ~hi:7.0 in
  check_float ~eps:1e-9 "parking hi" 5.24 p.Partition.parking_hi;
  check_float ~eps:1e-9 "interaction lo" 6.1 p.Partition.interaction_lo;
  check_true "parking membership" (Partition.in_parking p 5.2);
  check_true "exclusion membership" (Partition.in_exclusion p 6.0);
  check_true "interaction membership" (Partition.in_interaction p 6.5);
  check_true "no overlap" (not (Partition.in_parking p 6.5));
  check_true "exclusion is the widest band"
    (p.Partition.exclusion_hi -. p.Partition.exclusion_lo > Partition.parking_width p)

let test_partition_validation () =
  Alcotest.check_raises "inverted" (Invalid_argument "Partition.make: lo >= hi") (fun () ->
      ignore (Partition.make ~lo:7.0 ~hi:5.0));
  Alcotest.check_raises "bad custom"
    (Invalid_argument "Partition.custom: bands must be disjoint and ordered") (fun () ->
      ignore
        (Partition.custom ~parking:(5.0, 6.0) ~exclusion:(5.5, 5.9) ~interaction:(6.0, 7.0)))

let test_device_deterministic () =
  let a = device () and b = device () in
  for q = 0 to Device.n_qubits a - 1 do
    let ta = Device.transmon a q and tb = Device.transmon b q in
    check_float "same omega_max" ta.Fastsc_physics.Transmon.omega_max
      tb.Fastsc_physics.Transmon.omega_max
  done

let test_device_seed_changes_fabrication () =
  let a = device ~seed:1 () and b = device ~seed:2 () in
  let same = ref true in
  for q = 0 to Device.n_qubits a - 1 do
    let ta = Device.transmon a q and tb = Device.transmon b q in
    if ta.Fastsc_physics.Transmon.omega_max <> tb.Fastsc_physics.Transmon.omega_max then
      same := false
  done;
  check_true "different fabrication" (not !same)

let test_fabrication_spread () =
  let d = Device.create ~seed:3 (Topology.grid 8 8) in
  let omegas =
    List.init (Device.n_qubits d) (fun q ->
        (Device.transmon d q).Fastsc_physics.Transmon.omega_max)
  in
  let mean = Stats.mean omegas and sd = Stats.stddev omegas in
  check_true "mean near 7" (Float.abs (mean -. 7.0) < 0.08);
  check_true "spread near 0.1" (sd > 0.04 && sd < 0.16);
  (* clamped at 3 sigma *)
  List.iter (fun w -> check_true "within clamp" (w >= 6.7 -. 1e-9 && w <= 7.3 +. 1e-9)) omegas

let test_common_range () =
  let d = device () in
  let lo, hi = Device.common_range d in
  check_true "nontrivial" (lo < hi);
  for q = 0 to Device.n_qubits d - 1 do
    let qlo, qhi = Device.tunable_range d q in
    check_true "common within each" (qlo <= lo && hi <= qhi)
  done

let test_coupling_by_distance () =
  let d = device () in
  let g0 = (Device.params d).Device.g0 in
  (* grid 3x3: 0-1 adjacent, 0-2 distance 2, 0-8 distance 4 *)
  check_float "adjacent" g0 (Device.coupling d 0 1);
  check_float ~eps:1e-12 "distance 2 parasitic" (0.05 *. g0) (Device.coupling d 0 2);
  check_float "far" 0.0 (Device.coupling d 0 8);
  check_float "self" 0.0 (Device.coupling d 4 4);
  check_float "symmetric" (Device.coupling d 1 0) (Device.coupling d 0 1)

let test_gate_times () =
  let d = device () in
  let p = Device.params d in
  check_float ~eps:1e-9 "1q" p.Device.single_qubit_time (Device.gate_time d Gate.H);
  check_true "2q includes flux overhead"
    (Device.gate_time d Gate.Iswap
    > Fastsc_physics.Coupled_pair.iswap_time ~g:p.Device.g0);
  Alcotest.check_raises "non-native"
    (Invalid_argument "Device.gate_time: non-native gate (decompose first)") (fun () ->
      ignore (Device.gate_time d Gate.Cnot))

let test_pairs () =
  let d = device () in
  check_int "couplings" 12 (List.length (Device.coupled_pairs d));
  List.iter
    (fun (a, b) -> check_true "parasitic pairs at distance 2"
        (Fastsc_graphlib.Paths.distance (Device.graph d) a b = 2))
    (Device.distance2_pairs d)

let test_partition_within_common_range () =
  let d = device () in
  let lo, hi = Device.common_range d in
  let p = Device.partition d in
  check_float "partition spans range lo" lo p.Partition.parking_lo;
  check_float "partition spans range hi" hi p.Partition.interaction_hi

let test_presets () =
  let early = Device.preset `Early_nisq in
  let sycamore = Device.preset `Sycamore_era in
  let modern = Device.preset `Modern in
  check_true "early = default" (early = Device.default_params);
  check_true "coherence improves monotonically"
    (early.Device.t1_mean < sycamore.Device.t1_mean
    && sycamore.Device.t1_mean < modern.Device.t1_mean);
  check_true "gate errors improve"
    (modern.Device.base_error_2q < sycamore.Device.base_error_2q
    && sycamore.Device.base_error_2q < early.Device.base_error_2q);
  (* presets fabricate working devices *)
  List.iter
    (fun preset ->
      let d = Device.create ~params:(Device.preset preset) ~seed:1 (Topology.grid 2 2) in
      let lo, hi = Device.common_range d in
      check_true "sane range" (lo < hi))
    [ `Early_nisq; `Sycamore_era; `Modern ]

let prop_coherence_positive =
  prop_case "sampled coherence times stay positive" (int_range 1 500) (fun seed ->
      let d = Device.create ~seed (Topology.path 6) in
      List.for_all (fun q -> Device.t1 d q > 0.0 && Device.t2 d q > 0.0)
        (List.init (Device.n_qubits d) Fun.id))

let suite =
  [
    Alcotest.test_case "partition make" `Quick test_partition_make;
    Alcotest.test_case "partition validation" `Quick test_partition_validation;
    Alcotest.test_case "device deterministic" `Quick test_device_deterministic;
    Alcotest.test_case "seed changes fabrication" `Quick test_device_seed_changes_fabrication;
    Alcotest.test_case "fabrication spread" `Quick test_fabrication_spread;
    Alcotest.test_case "common range" `Quick test_common_range;
    Alcotest.test_case "coupling by distance" `Quick test_coupling_by_distance;
    Alcotest.test_case "gate times" `Quick test_gate_times;
    Alcotest.test_case "pairs" `Quick test_pairs;
    Alcotest.test_case "partition spans common range" `Quick test_partition_within_common_range;
    Alcotest.test_case "presets" `Quick test_presets;
    prop_coherence_positive;
  ]
