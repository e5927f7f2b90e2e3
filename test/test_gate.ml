open Helpers

let all_gates =
  [
    Gate.I; Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdg; Gate.T; Gate.Tdg;
    Gate.Sx; Gate.Sy; Gate.Sw; Gate.Rx 0.3; Gate.Ry 1.1; Gate.Rz (-0.7);
    Gate.Cz; Gate.Iswap; Gate.Sqrt_iswap; Gate.Cnot; Gate.Swap;
  ]

let test_arity () =
  check_int "h" 1 (Gate.arity Gate.H);
  check_int "cz" 2 (Gate.arity Gate.Cz);
  check_true "two qubit" (Gate.is_two_qubit Gate.Iswap);
  check_true "single" (not (Gate.is_two_qubit (Gate.Rz 0.1)))

let test_native () =
  check_true "cz native" (Gate.is_native Gate.Cz);
  check_true "cnot not native" (not (Gate.is_native Gate.Cnot));
  check_true "swap not native" (not (Gate.is_native Gate.Swap))

let test_all_unitary () =
  List.iter
    (fun g ->
      check_true (Gate.name g ^ " unitary") (is_unitary ~tol:1e-9 (Gate.unitary g)))
    all_gates

let test_unitary_dims () =
  List.iter
    (fun g ->
      let expected = if Gate.is_two_qubit g then 4 else 2 in
      check_int (Gate.name g ^ " dim") expected (Matrix.rows (Gate.unitary g)))
    all_gates

let test_sqrt_gates () =
  let check_square name half full =
    check_true name
      (equal_up_to_phase (Matrix.mul (Gate.unitary half) (Gate.unitary half))
         (Gate.unitary full))
  in
  check_square "sx^2 = x" Gate.Sx Gate.X;
  check_square "sy^2 = y" Gate.Sy Gate.Y;
  check_square "sqrt_iswap^2 = iswap" Gate.Sqrt_iswap Gate.Iswap

let test_sw_squares_to_w () =
  let s = 1.0 /. sqrt 2.0 in
  let w =
    Matrix.of_arrays
      [|
        [| Complex.zero; Complex_ext.make s (-.s) |];
        [| Complex_ext.make s s; Complex.zero |];
      |]
  in
  check_true "sw^2 = w"
    (equal_up_to_phase (Matrix.mul (Gate.unitary Gate.Sw) (Gate.unitary Gate.Sw)) w)

let test_paper_iswap_convention () =
  let u = Gate.unitary Gate.Iswap in
  check_true "-i on exchange"
    (Complex_ext.approx_equal (Matrix.get u 1 2) (Complex_ext.make 0.0 (-1.0)))

let test_h_via_rotations () =
  (* H = Ry(pi/2) then Z, up to phase: H = Z . Ry(pi/2)?  verify the standard
     identity H ~ Rx(pi) Ry(pi/2) *)
  let candidate = Matrix.mul (Gate.unitary (Gate.Rx Float.pi)) (Gate.unitary (Gate.Ry (Float.pi /. 2.0))) in
  check_true "h from rotations" (equal_up_to_phase candidate (Gate.unitary Gate.H))

let test_daggers () =
  List.iter
    (fun g ->
      match Gate.dagger g with
      | None -> ()
      | Some gd ->
        let product = Matrix.mul (Gate.unitary gd) (Gate.unitary g) in
        check_true
          (Gate.name g ^ " dagger")
          (equal_up_to_phase product (Matrix.identity (Matrix.rows product))))
    all_gates

let test_equal_tolerance () =
  check_true "rz angles equal" (Gate.equal (Gate.Rz 0.5) (Gate.Rz (0.5 +. 1e-13)));
  check_true "rz angles differ" (not (Gate.equal (Gate.Rz 0.5) (Gate.Rz 0.6)));
  check_true "different constructors" (not (Gate.equal Gate.X Gate.Y))

let test_names () =
  check_true "rz name" (Gate.name (Gate.Rz 0.79) = "rz(0.79)");
  check_true "sqrt_iswap name" (Gate.name Gate.Sqrt_iswap = "sqrt_iswap")

let test_s_t_relations () =
  (* T^2 = S, S^2 = Z *)
  check_true "t^2 = s"
    (equal_up_to_phase (Matrix.mul (Gate.unitary Gate.T) (Gate.unitary Gate.T)) (Gate.unitary Gate.S));
  check_true "s^2 = z"
    (equal_up_to_phase (Matrix.mul (Gate.unitary Gate.S) (Gate.unitary Gate.S)) (Gate.unitary Gate.Z))

let prop_rz_composition =
  prop_case "Rz(a) Rz(b) = Rz(a+b)" QCheck.(pair (float_range (-3.0) 3.0) (float_range (-3.0) 3.0))
    (fun (a, b) ->
      let lhs = Matrix.mul (Gate.unitary (Gate.Rz a)) (Gate.unitary (Gate.Rz b)) in
      equal_up_to_phase lhs (Gate.unitary (Gate.Rz (a +. b))))

let prop_rotations_unitary =
  prop_case "rotations are unitary" QCheck.(float_range (-10.0) 10.0) (fun theta ->
      is_unitary ~tol:1e-9 (Gate.unitary (Gate.Rx theta))
      && is_unitary ~tol:1e-9 (Gate.unitary (Gate.Ry theta))
      && is_unitary ~tol:1e-9 (Gate.unitary (Gate.Rz theta)))

let suite =
  [
    Alcotest.test_case "arity" `Quick test_arity;
    Alcotest.test_case "native set" `Quick test_native;
    Alcotest.test_case "all unitary" `Quick test_all_unitary;
    Alcotest.test_case "unitary dims" `Quick test_unitary_dims;
    Alcotest.test_case "sqrt gates" `Quick test_sqrt_gates;
    Alcotest.test_case "sw squares to w" `Quick test_sw_squares_to_w;
    Alcotest.test_case "paper iswap convention" `Quick test_paper_iswap_convention;
    Alcotest.test_case "h via rotations" `Quick test_h_via_rotations;
    Alcotest.test_case "daggers" `Quick test_daggers;
    Alcotest.test_case "equal tolerance" `Quick test_equal_tolerance;
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "s/t relations" `Quick test_s_t_relations;
    prop_rz_composition;
    prop_rotations_unitary;
  ]
