open Helpers

let test_initial_state () =
  let s = Statevector.create 3 in
  check_float "amp |000> = 1" 1.0 (Statevector.probability s 0);
  check_float "others zero" 0.0 (Statevector.probability s 5);
  check_float "norm" 1.0 (Statevector.norm s)

let test_x_flips () =
  let s = Statevector.create 2 in
  Statevector.apply s Gate.X [ 0 ];
  check_float "now |01>" 1.0 (Statevector.probability s 1);
  Statevector.apply s Gate.X [ 1 ];
  check_float "now |11>" 1.0 (Statevector.probability s 3)

let test_h_superposition () =
  let s = Statevector.create 1 in
  Statevector.apply s Gate.H [ 0 ];
  check_float ~eps:1e-12 "p0" 0.5 (Statevector.probability s 0);
  check_float ~eps:1e-12 "p1" 0.5 (Statevector.probability s 1)

let test_bell_state () =
  let s = Statevector.create 2 in
  Statevector.apply s Gate.H [ 0 ];
  Statevector.apply s Gate.Cnot [ 0; 1 ];
  check_float ~eps:1e-12 "p(00)" 0.5 (Statevector.probability s 0);
  check_float ~eps:1e-12 "p(11)" 0.5 (Statevector.probability s 3);
  check_float ~eps:1e-12 "p(01)" 0.0 (Statevector.probability s 1)

let test_cnot_control_msb_convention () =
  (* Cnot [a; b]: a is the control *)
  let s = Statevector.create 2 in
  Statevector.apply s Gate.X [ 1 ];
  (* |10> : qubit1 = 1 *)
  Statevector.apply s Gate.Cnot [ 1; 0 ];
  (* control qubit 1 set, so target flips: |11> *)
  check_float "controlled flip" 1.0 (Statevector.probability s 3);
  let s2 = Statevector.create 2 in
  Statevector.apply s2 Gate.X [ 1 ];
  Statevector.apply s2 Gate.Cnot [ 0; 1 ];
  (* control qubit 0 clear: nothing happens *)
  check_float "no flip" 1.0 (Statevector.probability s2 2)

let test_iswap_action () =
  let s = Statevector.create 2 in
  Statevector.apply s Gate.X [ 0 ];
  (* |01> *)
  Statevector.apply s Gate.Iswap [ 1; 0 ];
  (* paper convention: |01> -> -i |10> *)
  check_float ~eps:1e-12 "moved" 1.0 (Statevector.probability s 2);
  let amp = Statevector.amplitude s 2 in
  check_true "-i phase" (Complex_ext.approx_equal amp (Complex_ext.make 0.0 (-1.0)))

let test_swap_gate () =
  let s = Statevector.create 3 in
  Statevector.apply s Gate.X [ 0 ];
  Statevector.apply s Gate.Swap [ 0; 2 ];
  check_float "excitation moved to qubit 2" 1.0 (Statevector.probability s 4)

let test_run_circuit_ghz () =
  let c =
    Circuit.of_gates 3 [ (Gate.H, [ 0 ]); (Gate.Cnot, [ 0; 1 ]); (Gate.Cnot, [ 1; 2 ]) ]
  in
  let s = Statevector.of_circuit c in
  check_float ~eps:1e-12 "p(000)" 0.5 (Statevector.probability s 0);
  check_float ~eps:1e-12 "p(111)" 0.5 (Statevector.probability s 7)

let test_fidelity () =
  let a = Statevector.create 2 in
  let b = Statevector.create 2 in
  check_float ~eps:1e-12 "identical" 1.0 (Statevector.fidelity a b);
  Statevector.apply b Gate.X [ 0 ];
  check_float ~eps:1e-12 "orthogonal" 0.0 (Statevector.fidelity a b);
  let c = Statevector.create 2 in
  Statevector.apply c Gate.H [ 0 ];
  check_float ~eps:1e-12 "half overlap" 0.5 (Statevector.fidelity a c)

let test_global_phase_invisible_in_fidelity () =
  let a = Statevector.create 1 in
  let b = Statevector.create 1 in
  Statevector.apply b (Gate.Rz 1.3) [ 0 ];
  (* Rz only adds phase on |0> component *)
  check_float ~eps:1e-12 "phase invariant" 1.0 (Statevector.fidelity a b)

let test_measure_distribution () =
  let rng = Rng.create 99 in
  let s = Statevector.create 1 in
  Statevector.apply s Gate.H [ 0 ];
  let ones = ref 0 in
  for _ = 1 to 2000 do
    if Statevector.measure rng s = 1 then incr ones
  done;
  check_true "roughly balanced" (!ones > 850 && !ones < 1150)

let test_of_amplitudes_validation () =
  Alcotest.check_raises "not power of two"
    (Invalid_argument "Statevector.of_amplitudes: length must be a power of two") (fun () ->
      ignore (Statevector.of_amplitudes (Array.make 3 Complex.zero)))

let test_of_amplitudes_copies () =
  (* Regression: the boxed predecessor stored the caller's array, so mutating
     it after construction silently corrupted the state. *)
  let amps = [| Complex.zero; Complex.one |] in
  let s = Statevector.of_amplitudes amps in
  amps.(1) <- { Complex.re = 0.25; im = -0.75 };
  check_float ~eps:0.0 "caller mutation does not reach the state" 1.0 (Statevector.probability s 1);
  check_float ~eps:0.0 "basis-0 amplitude untouched" 0.0 (Statevector.probability s 0)

let test_reset () =
  let s = Statevector.create 2 in
  Statevector.apply s Gate.H [ 0 ];
  Statevector.apply s Gate.Cz [ 0; 1 ];
  Statevector.reset s;
  check_float ~eps:0.0 "back to |00>" 1.0 (Statevector.probability s 0);
  check_float ~eps:0.0 "norm restored" 1.0 (Statevector.norm s)

let test_apply_validation () =
  let s = Statevector.create 2 in
  Alcotest.check_raises "duplicate qubits"
    (Invalid_argument "Statevector.apply_entries2: duplicate qubit") (fun () ->
      Statevector.apply s Gate.Cz [ 1; 1 ]);
  Alcotest.check_raises "entries2 on a duplicate qubit"
    (Invalid_argument "Statevector.apply_entries2: duplicate qubit") (fun () ->
      Statevector.apply_entries2 s (Statevector.entries2 (Gate.unitary Gate.Cz)) 0 0);
  Alcotest.check_raises "exchange on a duplicate qubit"
    (Invalid_argument "Statevector.apply_exchange: duplicate qubit") (fun () ->
      Statevector.apply_exchange s ~c:1.0 ~s:0.0 0 0);
  Alcotest.check_raises "exchange out of range"
    (Invalid_argument "Statevector: qubit 2 out of range") (fun () ->
      Statevector.apply_exchange s ~c:1.0 ~s:0.0 0 2);
  let cz = [| 1.0; 0.0; 1.0; 0.0; 1.0; 0.0; -1.0; 0.0 |] in
  Alcotest.check_raises "diagonal on a duplicate qubit"
    (Invalid_argument "Statevector.apply_diagonal2: duplicate qubit") (fun () ->
      Statevector.apply_diagonal2 s cz 1 1);
  Alcotest.check_raises "diagonal out of range"
    (Invalid_argument "Statevector: qubit 2 out of range") (fun () ->
      Statevector.apply_diagonal2 s cz 2 0);
  Alcotest.check_raises "diagonal entry count"
    (Invalid_argument "Statevector.apply_diagonal2: expected 8 entries") (fun () ->
      Statevector.apply_diagonal2 s (Array.sub cz 0 6) 0 1);
  Alcotest.check_raises "blit size mismatch"
    (Invalid_argument "Statevector.blit: qubit count mismatch") (fun () ->
      Statevector.blit ~src:(Statevector.create 3) ~dst:s)

let test_matrix_apply_matches_gate () =
  let s1 = Statevector.create 3 in
  let s2 = Statevector.create 3 in
  Statevector.apply s1 Gate.H [ 1 ];
  Statevector.apply_matrix1 s2 (Gate.unitary Gate.H) 1;
  check_float ~eps:1e-12 "same state" 1.0 (Statevector.fidelity s1 s2)

(* The two-amplitude exchange kernel against the dense 4x4 path it replaces
   in trajectories, on random normalized states and in both operand orders.
   Float [=] per amplitude: +0 and -0 compare equal, the one difference the
   kernel may introduce. *)
let prop_exchange_matches_dense =
  prop_case "exchange kernel matches dense 4x4" (int_range 1 2000) (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 4 in
      let amps =
        Array.init (1 lsl n) (fun _ ->
            let re = Rng.uniform rng (-1.0) 1.0 in
            let im = Rng.uniform rng (-1.0) 1.0 in
            { Complex.re; im })
      in
      let state = Statevector.of_amplitudes amps in
      Statevector.normalize state;
      let theta =
        match Rng.int rng 4 with
        | 0 -> 0.0
        | 1 -> Float.pi /. 2.0
        | _ -> Rng.uniform rng (-.Float.pi) Float.pi
      in
      let a = Rng.int rng n in
      let b = (a + 1 + Rng.int rng (n - 1)) mod n in
      let dense_entries = Statevector.entries2 (Noisy_sim.exchange_unitary theta) in
      List.for_all
        (fun (a, b) ->
          let dense = Statevector.copy state and fast = Statevector.copy state in
          Statevector.apply_entries2 dense dense_entries a b;
          Statevector.apply_exchange fast ~c:(cos theta) ~s:(sin theta) a b;
          let dre, dim = Statevector.buffers dense and fre, fim = Statevector.buffers fast in
          let ok = ref true in
          for k = 0 to (1 lsl n) - 1 do
            if dre.{k} <> fre.{k} || dim.{k} <> fim.{k} then ok := false
          done;
          !ok)
        [ (a, b); (b, a) ])

(* The diagonal kernel against the dense 4x4 path on random diagonal
   unitaries (four random phases, so every entry is distinct), random
   normalized states and both operand orders.  Float [=] per amplitude, as
   for the exchange kernel. *)
let prop_diagonal_matches_dense =
  prop_case "diagonal kernel matches dense 4x4" (int_range 1 2000) (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 4 in
      let state =
        Statevector.of_amplitudes
          (Array.init (1 lsl n) (fun _ ->
               { Complex.re = Rng.uniform rng (-1.0) 1.0; im = Rng.uniform rng (-1.0) 1.0 }))
      in
      Statevector.normalize state;
      let phases = Array.init 4 (fun _ -> Rng.uniform rng (-.Float.pi) Float.pi) in
      let d = Array.init 8 (fun k -> if k land 1 = 0 then cos phases.(k / 2) else sin phases.(k / 2)) in
      let dense_entries = Array.make 32 0.0 in
      for k = 0 to 3 do
        dense_entries.(10 * k) <- d.(2 * k);
        dense_entries.((10 * k) + 1) <- d.((2 * k) + 1)
      done;
      let a = Rng.int rng n in
      let b = (a + 1 + Rng.int rng (n - 1)) mod n in
      List.for_all
        (fun (a, b) ->
          let dense = Statevector.copy state and fast = Statevector.copy state in
          Statevector.apply_entries2 dense dense_entries a b;
          Statevector.apply_diagonal2 fast d a b;
          let dre, dim = Statevector.buffers dense and fre, fim = Statevector.buffers fast in
          let ok = ref true in
          for k = 0 to (1 lsl n) - 1 do
            if dre.{k} <> fre.{k} || dim.{k} <> fim.{k} then ok := false
          done;
          !ok)
        [ (a, b); (b, a) ])

(* No kernel call allocates a minor word, whatever the state size and the
   job count: 1,000 calls of each kernel on 6 qubits, and 20 on 16 qubits
   (2^16 amplitudes). *)
let test_serial_kernels_allocate_nothing () =
  let e1 = Statevector.entries1 (Gate.unitary Gate.H) in
  let e2 = Statevector.entries2 (Gate.unitary Gate.Cnot) in
  let cz = [| 1.0; 0.0; 1.0; 0.0; 1.0; 0.0; -1.0; 0.0 |] in
  List.iter
    (fun (n, calls) ->
      let s = Statevector.create n in
      let words name f =
        let before = Gc.minor_words () in
        for _ = 1 to calls do
          f ()
        done;
        let after = Gc.minor_words () in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s on %d qubits allocates nothing" name n)
          0.0 (after -. before)
      in
      words "apply_entries1" (fun () -> Statevector.apply_entries1 s e1 3);
      words "apply_entries1 on qubit 0" (fun () -> Statevector.apply_entries1 s e1 0);
      words "apply_entries2" (fun () -> Statevector.apply_entries2 s e2 4 1);
      words "apply_entries2 on the outer pair" (fun () -> Statevector.apply_entries2 s e2 0 (n - 1));
      words "apply_diagonal2" (fun () -> Statevector.apply_diagonal2 s cz 2 3);
      words "apply_exchange" (fun () -> Statevector.apply_exchange s ~c:0.6 ~s:0.8 (n - 1) 0))
    [ (6, 1000); (16, 20) ]

let test_blit () =
  let src = Statevector.create 3 and dst = Statevector.create 3 in
  Statevector.apply src Gate.H [ 0 ];
  Statevector.apply src Gate.Cnot [ 0; 2 ];
  Statevector.blit ~src ~dst;
  check_true "same amplitudes" (Statevector.amplitudes src = Statevector.amplitudes dst);
  Statevector.apply dst Gate.X [ 1 ];
  check_float ~eps:0.0 "buffers stay separate" 0.0 (Statevector.probability src 2)

let prop_unitarity_preserves_norm =
  prop_case "norm preserved by random circuits" (int_range 1 2000) (fun seed ->
      let rng = Rng.create seed in
      let s = Statevector.create 4 in
      for _ = 1 to 12 do
        match Rng.int rng 5 with
        | 0 -> Statevector.apply s Gate.H [ Rng.int rng 4 ]
        | 1 -> Statevector.apply s (Gate.Rx (Rng.float rng)) [ Rng.int rng 4 ]
        | 2 -> Statevector.apply s Gate.T [ Rng.int rng 4 ]
        | 3 ->
          let a = Rng.int rng 4 in
          Statevector.apply s Gate.Cz [ a; (a + 1 + Rng.int rng 3) mod 4 ]
        | _ ->
          let a = Rng.int rng 4 in
          Statevector.apply s Gate.Iswap [ a; (a + 1 + Rng.int rng 3) mod 4 ]
      done;
      Float.abs (Statevector.norm s -. 1.0) < 1e-9)

let prop_probabilities_sum_to_one =
  prop_case "probabilities sum to 1" (int_range 1 2000) (fun seed ->
      let rng = Rng.create seed in
      let s = Statevector.create 3 in
      for _ = 1 to 8 do
        Statevector.apply s (Gate.Ry (Rng.float rng *. 6.28)) [ Rng.int rng 3 ]
      done;
      let total = Array.fold_left ( +. ) 0.0 (Statevector.probabilities s) in
      Float.abs (total -. 1.0) < 1e-9)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "x flips" `Quick test_x_flips;
    Alcotest.test_case "h superposition" `Quick test_h_superposition;
    Alcotest.test_case "bell state" `Quick test_bell_state;
    Alcotest.test_case "cnot convention" `Quick test_cnot_control_msb_convention;
    Alcotest.test_case "iswap action" `Quick test_iswap_action;
    Alcotest.test_case "swap gate" `Quick test_swap_gate;
    Alcotest.test_case "ghz circuit" `Quick test_run_circuit_ghz;
    Alcotest.test_case "fidelity" `Quick test_fidelity;
    Alcotest.test_case "phase invariance" `Quick test_global_phase_invisible_in_fidelity;
    Alcotest.test_case "measure distribution" `Quick test_measure_distribution;
    Alcotest.test_case "of_amplitudes validation" `Quick test_of_amplitudes_validation;
    Alcotest.test_case "of_amplitudes copies" `Quick test_of_amplitudes_copies;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "apply validation" `Quick test_apply_validation;
    Alcotest.test_case "matrix apply" `Quick test_matrix_apply_matches_gate;
    prop_exchange_matches_dense;
    prop_diagonal_matches_dense;
    Alcotest.test_case "serial kernels allocate nothing" `Quick
      test_serial_kernels_allocate_nothing;
    Alcotest.test_case "blit" `Quick test_blit;
    prop_unitarity_preserves_norm;
    prop_probabilities_sum_to_one;
  ]
