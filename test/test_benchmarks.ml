open Helpers
open Fastsc_benchmarks

let test_bv_structure () =
  let c = Bv.circuit ~n:5 () in
  check_int "qubits" 5 (Circuit.n_qubits c);
  (* all-ones secret: one CNOT per data qubit *)
  check_int "cnots" 4 (Circuit.count (fun g -> g = Gate.Cnot) c);
  check_int "hadamards" 10 (Circuit.count (fun g -> g = Gate.H) c)

let test_bv_secret_weight () =
  let c = Bv.circuit ~secret:0b101 ~n:5 () in
  check_int "two cnots" 2 (Circuit.count (fun g -> g = Gate.Cnot) c)

let test_bv_ideal_outcome () =
  (* simulate: the algorithm recovers the secret deterministically *)
  let n = 4 and secret = 0b011 in
  let c = Bv.circuit ~secret ~n () in
  let state = Statevector.of_circuit c in
  let expected = Bv.expected_outcome ~secret ~n () in
  check_float ~eps:1e-9 "deterministic readout" 1.0 (Statevector.probability state expected)

let test_bv_validation () =
  Alcotest.check_raises "too small" (Invalid_argument "Bv.circuit: needs at least 2 qubits")
    (fun () -> ignore (Bv.circuit ~n:1 ()));
  Alcotest.check_raises "negative" (Invalid_argument "Bv.circuit: negative secret") (fun () ->
      ignore (Bv.circuit ~secret:(-1) ~n:3 ()))

let test_qaoa_structure () =
  let rng = Rng.create 9 in
  let g = Qaoa.problem_graph rng ~n:6 () in
  let c = Qaoa.circuit_of_graph (Rng.create 10) g in
  check_int "qubits" 6 (Circuit.n_qubits c);
  (* 2 CNOTs per edge *)
  check_int "cnot count" (2 * Graph.n_edges g) (Circuit.count (fun g -> g = Gate.Cnot) c);
  (* one mixer rotation per qubit per round plus initial H layer *)
  check_int "h count" 6 (Circuit.count (fun g -> g = Gate.H) c)

let test_qaoa_deterministic_per_seed () =
  let mk () = Qaoa.circuit (Rng.create 77) ~n:5 () in
  let a = mk () and b = mk () in
  check_int "same length" (Circuit.length a) (Circuit.length b)

let test_qaoa_rounds_scale () =
  let c1 = Qaoa.circuit (Rng.create 3) ~n:5 ~rounds:1 () in
  let c2 = Qaoa.circuit (Rng.create 3) ~n:5 ~rounds:3 () in
  check_true "more rounds, more gates" (Circuit.length c2 > Circuit.length c1)

let test_ising_structure () =
  let c = Ising.circuit ~n:5 () in
  check_int "qubits" 5 (Circuit.n_qubits c);
  (* 3 steps x 4 bonds x 2 cnots *)
  check_int "cnots" 24 (Circuit.count (fun g -> g = Gate.Cnot) c);
  (* only nearest-neighbour pairs *)
  List.iter
    (fun (a, b) -> check_int "chain pair" 1 (b - a))
    (Circuit.two_qubit_pairs c)

let test_ising_validation () =
  Alcotest.check_raises "steps" (Invalid_argument "Ising.circuit: needs at least 1 Trotter step")
    (fun () -> ignore (Ising.circuit ~steps:0 ~n:4 ()))

let test_qgan_structure () =
  let c = Qgan.circuit (Rng.create 4) ~n:4 () in
  check_int "qubits" 4 (Circuit.n_qubits c);
  (* default 2 layers: 2 * 3 ladder cnots *)
  check_int "cnots" 6 (Circuit.count (fun g -> g = Gate.Cnot) c);
  check_int "parameters" (Qgan.n_parameters ~n:4 ())
    (Circuit.count (function Gate.Ry _ | Gate.Rz _ -> true | _ -> false) c)

let test_xeb_structure () =
  let rng = Rng.create 12 in
  let topo = Topology.grid 3 3 in
  let classes =
    List.map
      (fun (e, c) ->
        (e, match c with Topology.A -> 0 | Topology.B -> 1 | Topology.C -> 2 | Topology.D -> 3))
      (Topology.grid_edge_classes 3 3)
  in
  let cycles = 8 in
  let c = Xeb.circuit rng ~graph:topo.Topology.graph ~classes ~cycles () in
  check_int "qubits" 9 (Circuit.n_qubits c);
  (* one single-qubit gate per qubit per cycle *)
  check_int "1q gates" (9 * cycles)
    (Circuit.count (fun g -> not (Gate.is_two_qubit g)) c);
  (* every two-qubit gate on a device coupling *)
  List.iter
    (fun (a, b) -> check_true "coupling" (Graph.mem_edge topo.Topology.graph a b))
    (Circuit.two_qubit_pairs c);
  (* 8 cycles cover each class twice: all 12 couplings were activated *)
  check_int "all couplings used" 12 (List.length (Circuit.two_qubit_pairs c))

let test_xeb_no_repeat_single_qubit () =
  let rng = Rng.create 5 in
  let topo = Topology.grid 2 2 in
  let classes =
    List.map
      (fun (e, c) ->
        (e, match c with Topology.A -> 0 | Topology.B -> 1 | Topology.C -> 2 | Topology.D -> 3))
      (Topology.grid_edge_classes 2 2)
  in
  let c = Xeb.circuit rng ~graph:topo.Topology.graph ~classes ~cycles:20 () in
  (* per qubit, consecutive single-qubit gates always differ *)
  let last = Array.make 4 Gate.I in
  Array.iter
    (fun app ->
      if not (Gate.is_two_qubit app.Gate.gate) then begin
        let q = app.Gate.qubits.(0) in
        check_true "no immediate repetition" (not (Gate.equal last.(q) app.Gate.gate));
        last.(q) <- app.Gate.gate
      end)
    (Circuit.instructions c)

let test_xeb_missing_class_rejected () =
  let topo = Topology.grid 2 2 in
  check_true "raises"
    (try
       ignore (Xeb.circuit (Rng.create 1) ~graph:topo.Topology.graph ~classes:[] ~cycles:1 ());
       false
     with Invalid_argument _ -> true)

let prop_generators_total =
  prop_case ~count:40 "generators never raise on valid sizes"
    (QCheck.pair (int_range 2 10) (int_range 1 200))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      ignore (Bv.circuit ~n ());
      ignore (Qaoa.circuit rng ~n ());
      ignore (Ising.circuit ~n ());
      ignore (Qgan.circuit rng ~n ());
      true)

let suite =
  [
    Alcotest.test_case "bv structure" `Quick test_bv_structure;
    Alcotest.test_case "bv secret weight" `Quick test_bv_secret_weight;
    Alcotest.test_case "bv ideal outcome" `Quick test_bv_ideal_outcome;
    Alcotest.test_case "bv validation" `Quick test_bv_validation;
    Alcotest.test_case "qaoa structure" `Quick test_qaoa_structure;
    Alcotest.test_case "qaoa deterministic" `Quick test_qaoa_deterministic_per_seed;
    Alcotest.test_case "qaoa rounds" `Quick test_qaoa_rounds_scale;
    Alcotest.test_case "ising structure" `Quick test_ising_structure;
    Alcotest.test_case "ising validation" `Quick test_ising_validation;
    Alcotest.test_case "qgan structure" `Quick test_qgan_structure;
    Alcotest.test_case "xeb structure" `Quick test_xeb_structure;
    Alcotest.test_case "xeb no repeat" `Quick test_xeb_no_repeat_single_qubit;
    Alcotest.test_case "xeb missing class" `Quick test_xeb_missing_class_rejected;
    prop_generators_total;
  ]
