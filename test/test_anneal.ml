open Helpers
open Fastsc_device
open Fastsc_core

let device () = Device.create ~seed:2020 (Topology.grid 3 3)

let xeb device =
  let classes = Baseline_gmon.edge_classes device in
  Fastsc_benchmarks.Xeb.circuit (Rng.create 7) ~graph:(Device.graph device) ~classes
    ~cycles:3 ()

let test_valid_schedule () =
  let d = device () in
  let s = Compile.run Compile.Anneal_dynamic d (xeb d) in
  match Schedule.check s with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_deterministic () =
  let d = device () in
  let native = Compile.prepare Pass.default_options d (xeb d) in
  let a = Anneal_dynamic.run ~seed:5 d native in
  let b = Anneal_dynamic.run ~seed:5 d native in
  check_float "same result for same seed"
    (Schedule.evaluate a).Schedule.log10_success
    (Schedule.evaluate b).Schedule.log10_success

let test_max_parallelism () =
  (* the spectral strategy never serializes qubit-disjoint gates *)
  let d = device () in
  let circuit =
    Circuit.of_gates 9 [ (Gate.Iswap, [ 0; 1 ]); (Gate.Iswap, [ 2; 5 ]); (Gate.Iswap, [ 7; 8 ]) ]
  in
  let s = Compile.schedule_native Pass.default_options Compile.Anneal_dynamic d circuit in
  check_int "single step" 1 (Schedule.depth s)

let test_separates_colliding_gates () =
  (* two adjacent parallel gates: annealing must pull their frequencies apart *)
  let d = device () in
  let circuit = Circuit.of_gates 9 [ (Gate.Iswap, [ 0; 1 ]); (Gate.Iswap, [ 2; 5 ]) ] in
  let s = Compile.schedule_native Pass.default_options Compile.Anneal_dynamic d circuit in
  match s.Schedule.steps with
  | [ step ] ->
    let f01 = step.Schedule.freqs.(0) and f25 = step.Schedule.freqs.(2) in
    check_true "pulled apart" (Float.abs (f01 -. f25) > 0.05)
  | _ -> Alcotest.fail "expected one step"

let test_comparable_to_colordynamic () =
  let d = device () in
  let circuit = xeb d in
  let cd = Schedule.evaluate (Compile.run Compile.Color_dynamic d circuit) in
  let an = Schedule.evaluate (Compile.run Compile.Anneal_dynamic d circuit) in
  (* within one decade either way on this scale *)
  check_true "comparable quality"
    (Float.abs (cd.Schedule.log10_success -. an.Schedule.log10_success) < 1.0)

let suite =
  [
    Alcotest.test_case "valid schedule" `Quick test_valid_schedule;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "max parallelism" `Quick test_max_parallelism;
    Alcotest.test_case "separates colliding gates" `Quick test_separates_colliding_gates;
    Alcotest.test_case "comparable to colordynamic" `Quick test_comparable_to_colordynamic;
  ]
