open Helpers

let sample () =
  Circuit.of_gates 3
    [
      (Gate.H, [ 0 ]);
      (Gate.Rz 0.7853981633974483, [ 1 ]);
      (Gate.Cnot, [ 0; 1 ]);
      (Gate.Iswap, [ 1; 2 ]);
      (Gate.Sqrt_iswap, [ 0; 2 ]);
      (Gate.Sdg, [ 2 ]);
    ]

let circuits_equal a b =
  Circuit.n_qubits a = Circuit.n_qubits b
  && Circuit.length a = Circuit.length b
  && Array.for_all2
       (fun x y -> Gate.equal x.Gate.gate y.Gate.gate && x.Gate.qubits = y.Gate.qubits)
       (Circuit.instructions a) (Circuit.instructions b)

let test_writer_format () =
  let text = Qasm.to_string (sample ()) in
  let has needle =
    let n = String.length needle and h = String.length text in
    let rec scan i = i + n <= h && (String.sub text i n = needle || scan (i + 1)) in
    scan 0
  in
  check_true "header" (has "OPENQASM 2.0;");
  check_true "qelib include" (has "include \"qelib1.inc\";");
  check_true "register" (has "qreg q[3];");
  check_true "cx line" (has "cx q[0], q[1];");
  check_true "iswap opaque" (has "opaque iswap a, b;");
  check_true "rz angle" (has "rz(0.78539816339744828) q[1];")

let test_roundtrip () =
  let c = sample () in
  check_true "roundtrip" (circuits_equal c (Qasm.of_string (Qasm.to_string c)))

let test_parse_minimal () =
  let c = Qasm.of_string "qreg q[2];\nh q[0];\ncx q[0], q[1];\n" in
  check_int "qubits" 2 (Circuit.n_qubits c);
  check_int "gates" 2 (Circuit.length c)

let test_parse_comments_and_blanks () =
  let c = Qasm.of_string "// a comment\n\nqreg q[1];\nx q[0]; // trailing\n" in
  check_int "one gate" 1 (Circuit.length c)

let test_parse_angle () =
  let c = Qasm.of_string "qreg q[1];\nrx(-1.5) q[0];\n" in
  match (Circuit.instructions c).(0).Gate.gate with
  | Gate.Rx t -> check_float ~eps:1e-12 "angle" (-1.5) t
  | g -> Alcotest.failf "expected rx, got %s" (Gate.name g)

let expect_parse_error text =
  try
    ignore (Qasm.of_string text);
    false
  with Qasm.Parse_error _ -> true

let test_parse_errors () =
  check_true "no qreg" (expect_parse_error "h q[0];\n");
  check_true "unknown gate" (expect_parse_error "qreg q[1];\nfrobnicate q[0];\n");
  check_true "missing semicolon" (expect_parse_error "qreg q[1];\nh q[0]\n");
  check_true "out of register" (expect_parse_error "qreg q[1];\nh q[5];\n");
  check_true "operand count" (expect_parse_error "qreg q[2];\ncx q[0];\n");
  check_true "bad angle" (expect_parse_error "qreg q[1];\nrx(xyz) q[0];\n");
  check_true "param on plain gate" (expect_parse_error "qreg q[1];\nh(0.5) q[0];\n");
  check_true "missing param" (expect_parse_error "qreg q[1];\nrx q[0];\n");
  check_true "double qreg" (expect_parse_error "qreg q[1];\nqreg q[2];\n")

let test_roundtrip_preserves_semantics () =
  let c = sample () in
  let c' = Qasm.of_string (Qasm.to_string c) in
  check_true "unitaries match" (equal_up_to_phase (circuit_unitary c') (circuit_unitary c))

let all_gate_circuit () =
  Circuit.of_gates 2
    [
      (Gate.I, [ 0 ]); (Gate.X, [ 0 ]); (Gate.Y, [ 0 ]); (Gate.Z, [ 0 ]); (Gate.H, [ 0 ]);
      (Gate.S, [ 0 ]); (Gate.Sdg, [ 0 ]); (Gate.T, [ 0 ]); (Gate.Tdg, [ 0 ]);
      (Gate.Sx, [ 0 ]); (Gate.Sy, [ 0 ]); (Gate.Sw, [ 0 ]);
      (Gate.Rx 0.1, [ 0 ]); (Gate.Ry (-2.3), [ 1 ]); (Gate.Rz 3.0, [ 1 ]);
      (Gate.Cz, [ 0; 1 ]); (Gate.Iswap, [ 0; 1 ]); (Gate.Sqrt_iswap, [ 1; 0 ]);
      (Gate.Cnot, [ 1; 0 ]); (Gate.Swap, [ 0; 1 ]);
    ]

let test_every_gate_roundtrips () =
  let c = all_gate_circuit () in
  check_true "all gates" (circuits_equal c (Qasm.of_string (Qasm.to_string c)))

let prop_random_roundtrip =
  prop_case ~count:50 "random circuits roundtrip" (int_range 1 100_000) (fun seed ->
      let rng = Rng.create seed in
      let b = Circuit.builder 4 in
      for _ = 1 to 20 do
        match Rng.int rng 5 with
        | 0 -> Circuit.add b Gate.H [ Rng.int rng 4 ]
        | 1 -> Circuit.add b (Gate.Rz (Rng.uniform rng (-6.0) 6.0)) [ Rng.int rng 4 ]
        | 2 -> Circuit.add b (Gate.Rx (Rng.uniform rng (-6.0) 6.0)) [ Rng.int rng 4 ]
        | 3 ->
          let a = Rng.int rng 4 in
          Circuit.add b Gate.Cz [ a; (a + 1 + Rng.int rng 3) mod 4 ]
        | _ ->
          let a = Rng.int rng 4 in
          Circuit.add b Gate.Cnot [ a; (a + 1 + Rng.int rng 3) mod 4 ]
      done;
      let c = Circuit.finish b in
      circuits_equal c (Qasm.of_string (Qasm.to_string c)))

let suite =
  [
    Alcotest.test_case "writer format" `Quick test_writer_format;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "parse minimal" `Quick test_parse_minimal;
    Alcotest.test_case "comments and blanks" `Quick test_parse_comments_and_blanks;
    Alcotest.test_case "parse angle" `Quick test_parse_angle;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "semantics preserved" `Quick test_roundtrip_preserves_semantics;
    Alcotest.test_case "every gate roundtrips" `Quick test_every_gate_roundtrips;
    prop_random_roundtrip;
  ]
