open Helpers

let c = Complex_ext.make

let test_complex_helpers () =
  check_true "i^2 = -1" (Complex_ext.approx_equal (Complex.mul Complex_ext.i Complex_ext.i) (c (-1.0) 0.0));
  check_true "exp_i pi = -1" (Complex_ext.approx_equal (Complex_ext.exp_i Float.pi) (c (-1.0) 0.0));
  check_float "norm2" 25.0 (Complex_ext.norm2 (c 3.0 4.0));
  check_true "scale" (Complex_ext.approx_equal (Complex_ext.scale 2.0 (c 1.0 (-1.0))) (c 2.0 (-2.0)))

let test_matrix_construction () =
  let m = of_real_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_int "rows" 2 (Matrix.rows m);
  check_true "entry" (Complex_ext.approx_equal (Matrix.get m 1 0) (c 3.0 0.0));
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_arrays: ragged rows")
    (fun () ->
      ignore (Matrix.of_arrays [| [| Complex.one |]; [| Complex.one; Complex.one |] |]))

let test_identity_mul () =
  let m = of_real_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_true "I * m = m" (Matrix.approx_equal (Matrix.mul (Matrix.identity 2) m) m);
  check_true "m * I = m" (Matrix.approx_equal (Matrix.mul m (Matrix.identity 2)) m)

let test_mul_known () =
  let a = of_real_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = of_real_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let expected = of_real_arrays [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |] in
  check_true "product" (Matrix.approx_equal (Matrix.mul a b) expected)

let test_adjoint () =
  let m = Matrix.of_arrays [| [| c 1.0 1.0; c 0.0 2.0 |]; [| c 3.0 0.0; c 0.0 (-1.0) |] |] in
  let adj = Matrix.adjoint m in
  check_true "conj transpose" (Complex_ext.approx_equal (Matrix.get adj 0 1) (c 3.0 0.0));
  check_true "conj" (Complex_ext.approx_equal (Matrix.get adj 1 0) (c 0.0 (-2.0)))

let test_kron () =
  let x = of_real_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let i2 = Matrix.identity 2 in
  let xi = Matrix.kron x i2 in
  check_int "dim" 4 (Matrix.rows xi);
  (* X (x) I applied to |00> = |10> : column 0 has a 1 at row 2 *)
  check_true "block structure" (Complex_ext.approx_equal (Matrix.get xi 2 0) Complex.one);
  check_true "zero elsewhere" (Complex_ext.approx_equal (Matrix.get xi 1 0) Complex.zero)

let test_mat_vec () =
  let m = of_real_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let v = [| c 1.0 0.0; c 1.0 0.0 |] in
  let out = Matrix.mat_vec m v in
  check_true "row sums" (Complex_ext.approx_equal out.(0) (c 3.0 0.0));
  check_true "row sums" (Complex_ext.approx_equal out.(1) (c 7.0 0.0))

let test_hermitian_unitary_predicates () =
  let h = Matrix.of_arrays [| [| c 1.0 0.0; c 0.0 1.0 |]; [| c 0.0 (-1.0); c 2.0 0.0 |] |] in
  check_true "hermitian" (Matrix.is_hermitian h);
  check_true "not unitary" (not (is_unitary h));
  let had =
    Matrix.scale_re (1.0 /. sqrt 2.0) (of_real_arrays [| [| 1.0; 1.0 |]; [| 1.0; -1.0 |] |])
  in
  check_true "hadamard unitary" (is_unitary had)

(* A NaN entry is never within tolerance: the worst-entry difference
   propagates it instead of skipping it. *)
let test_nan_fails_comparisons () =
  let nans = Matrix.init 2 2 (fun _ _ -> { Complex.re = nan; im = nan }) in
  check_true "all-NaN is not approx_equal to I" (not (Matrix.approx_equal nans (Matrix.identity 2)));
  check_true "I is not approx_equal to all-NaN" (not (Matrix.approx_equal (Matrix.identity 2) nans));
  check_true "all-NaN is not Hermitian" (not (Matrix.is_hermitian nans));
  let one_nan = Matrix.identity 2 in
  Matrix.set one_nan 1 0 { Complex.re = nan; im = 0.0 };
  check_true "one NaN entry after an exact one" (not (Matrix.approx_equal one_nan (Matrix.identity 2)));
  Alcotest.check_raises "eigh rejects NaN" (Invalid_argument "Eig.eigh: matrix is not Hermitian")
    (fun () -> ignore (Eig.eigh nans))

let test_jacobi_2x2 () =
  let values, vectors = Eig.jacobi_symmetric [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  check_float ~eps:1e-10 "lambda0" 1.0 values.(0);
  check_float ~eps:1e-10 "lambda1" 3.0 values.(1);
  (* eigenvector for 1 is (1,-1)/sqrt2 up to sign *)
  let v0 = vectors.(0) in
  check_float ~eps:1e-9 "orthonormal" 1.0 ((v0.(0) *. v0.(0)) +. (v0.(1) *. v0.(1)));
  check_float ~eps:1e-9 "direction" 0.0 (v0.(0) +. v0.(1))

let test_jacobi_diagonal () =
  let values, _ = Eig.jacobi_symmetric [| [| 3.0; 0.0 |]; [| 0.0; -1.0 |] |] in
  check_float "sorted ascending" (-1.0) values.(0);
  check_float "second" 3.0 values.(1)

let test_eigh_reconstruction () =
  let h =
    Matrix.of_arrays
      [|
        [| c 2.0 0.0; c 0.0 1.0; c 0.5 0.0 |];
        [| c 0.0 (-1.0); c 1.0 0.0; c 0.0 0.3 |];
        [| c 0.5 0.0; c 0.0 (-0.3); c (-1.0) 0.0 |];
      |]
  in
  let values, vectors = Eig.eigh h in
  (* H v_k = lambda_k v_k for every k *)
  for k = 0 to 2 do
    let vk = Array.init 3 (fun r -> Matrix.get vectors r k) in
    let hv = Matrix.mat_vec h vk in
    for r = 0 to 2 do
      check_true "eigen equation"
        (Complex_ext.approx_equal ~tol:1e-7 hv.(r) (Complex_ext.scale values.(k) vk.(r)))
    done
  done;
  check_true "ascending" (values.(0) <= values.(1) && values.(1) <= values.(2))

let test_eigh_requires_hermitian () =
  let m = of_real_arrays [| [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |] in
  Alcotest.check_raises "non-hermitian" (Invalid_argument "Eig.eigh: matrix is not Hermitian")
    (fun () -> ignore (Eig.eigh m))

let test_expm_hermitian_unitary () =
  let h = Matrix.of_arrays [| [| c 1.0 0.0; c 0.3 0.2 |]; [| c 0.3 (-0.2); c (-0.5) 0.0 |] |] in
  let u = Eig.expm_hermitian h 0.7 in
  check_true "unitary" (is_unitary ~tol:1e-8 u)

let test_expm_pauli_x () =
  (* exp(-i X t) = cos t I - i sin t X *)
  let x = of_real_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let t = 0.4 in
  let u = Eig.expm_hermitian x t in
  let expected =
    Matrix.of_arrays
      [| [| c (cos t) 0.0; c 0.0 (-.sin t) |]; [| c 0.0 (-.sin t); c (cos t) 0.0 |] |]
  in
  check_true "matches closed form" (Matrix.approx_equal ~tol:1e-8 u expected)

let random_matrix rng n =
  Matrix.init n n (fun _ _ -> Complex_ext.make (Rng.gaussian rng) (Rng.gaussian rng))

let prop_kron_mixed_product =
  (* (A (x) B)(C (x) D) = AC (x) BD *)
  prop_case ~count:30 "kronecker mixed-product identity" (int_range 1 5000) (fun seed ->
      let rng = Rng.create seed in
      let a = random_matrix rng 2 and b = random_matrix rng 2 in
      let cm = random_matrix rng 2 and d = random_matrix rng 2 in
      Matrix.approx_equal ~tol:1e-9
        (Matrix.mul (Matrix.kron a b) (Matrix.kron cm d))
        (Matrix.kron (Matrix.mul a cm) (Matrix.mul b d)))

let prop_adjoint_antihomomorphism =
  (* (AB)† = B† A† *)
  prop_case ~count:30 "adjoint reverses products" (int_range 1 5000) (fun seed ->
      let rng = Rng.create seed in
      let a = random_matrix rng 3 and b = random_matrix rng 3 in
      Matrix.approx_equal ~tol:1e-9
        (Matrix.adjoint (Matrix.mul a b))
        (Matrix.mul (Matrix.adjoint b) (Matrix.adjoint a)))

let prop_eigh_trace_preserved =
  (* sum of eigenvalues = trace for Hermitian matrices *)
  prop_case ~count:25 "eigenvalues sum to the trace" (int_range 1 5000) (fun seed ->
      let rng = Rng.create seed in
      let raw = random_matrix rng 4 in
      let h = Matrix.scale_re 0.5 (Matrix.add raw (Matrix.adjoint raw)) in
      let values, _ = Eig.eigh h in
      let sum = Array.fold_left ( +. ) 0.0 values in
      Float.abs (sum -. (trace h).Complex.re) < 1e-6)

let prop_expm_preserves_norm =
  prop_case "evolution preserves vector norm" QCheck.(float_range 0.0 5.0) (fun t ->
      let h =
        Matrix.of_arrays [| [| c 2.0 0.0; c 0.1 0.4 |]; [| c 0.1 (-0.4); c 1.0 0.0 |] |]
      in
      let u = Eig.expm_hermitian h t in
      let v = [| c 0.6 0.0; c 0.0 0.8 |] in
      let out = Matrix.mat_vec u v in
      let n = Array.fold_left (fun acc z -> acc +. Complex_ext.norm2 z) 0.0 out in
      Float.abs (n -. 1.0) < 1e-8)

(* The flat arithmetic against the boxed formulas it replaced: every entry of
   add, scale, scale_re, kron and mul must carry the bits of the same
   Complex.add/Complex.mul expression.  Parts are drawn as +0.0, -0.0 or a
   gaussian, so signed zeros and all-zero entries (which mul skips) are
   common; the zero scales are checked on every case. *)
let signed_part rng =
  match Rng.int rng 4 with 0 -> 0.0 | 1 -> -0.0 | _ -> Rng.gaussian rng

let signed_matrix rng rows cols =
  Matrix.init rows cols (fun _ _ -> Complex_ext.make (signed_part rng) (signed_part rng))

let boxed m = Array.init (Matrix.rows m) (fun r -> Array.init (Matrix.cols m) (Matrix.get m r))

let boxed_mul a b =
  Array.map
    (fun arow ->
      let row = Array.make (Array.length b.(0)) Complex.zero in
      Array.iteri
        (fun k aik ->
          if aik <> Complex.zero then
            Array.iteri (fun c bkc -> row.(c) <- Complex.add row.(c) (Complex.mul aik bkc)) b.(k))
        arow;
      row)
    a

let boxed_kron a b =
  let br = Array.length b and bc = Array.length b.(0) in
  Array.init (Array.length a * br) (fun r ->
      Array.init (Array.length a.(0) * bc) (fun c ->
          Complex.mul a.(r / br).(c / bc) b.(r mod br).(c mod bc)))

let same_bits expected m =
  let bits x = Int64.bits_of_float x in
  let same z w = bits z.Complex.re = bits w.Complex.re && bits z.Complex.im = bits w.Complex.im in
  Array.for_all2 (Array.for_all2 same) expected (boxed m)

let prop_boxed_bits =
  prop_case ~count:300 "arithmetic matches the boxed formulas bit for bit"
    (int_range 1 1_000_000) (fun seed ->
      let rng = Rng.create seed in
      let dim () = 1 + Rng.int rng 3 in
      let r = dim () and k = dim () and cols = dim () in
      let a = signed_matrix rng r k and a' = signed_matrix rng r k in
      let b = signed_matrix rng k cols in
      let s = Complex_ext.make (signed_part rng) (signed_part rng) and x = signed_part rng in
      let scaled s = Array.map (Array.map (Complex.mul s)) (boxed a) in
      same_bits (Array.map2 (Array.map2 Complex.add) (boxed a) (boxed a')) (Matrix.add a a')
      && same_bits (scaled s) (Matrix.scale s a)
      && same_bits (scaled Complex.zero) (Matrix.scale Complex.zero a)
      && same_bits (scaled (Complex_ext.re x)) (Matrix.scale_re x a)
      && same_bits (scaled Complex.zero) (Matrix.scale_re 0.0 a)
      && same_bits (boxed_kron (boxed a) (boxed b)) (Matrix.kron a b)
      && same_bits (boxed_mul (boxed a) (boxed b)) (Matrix.mul a b))

let suite =
  [
    Alcotest.test_case "complex helpers" `Quick test_complex_helpers;
    Alcotest.test_case "matrix construction" `Quick test_matrix_construction;
    Alcotest.test_case "identity mul" `Quick test_identity_mul;
    Alcotest.test_case "mul known" `Quick test_mul_known;
    Alcotest.test_case "adjoint" `Quick test_adjoint;
    Alcotest.test_case "kron" `Quick test_kron;
    Alcotest.test_case "mat_vec" `Quick test_mat_vec;
    Alcotest.test_case "hermitian/unitary predicates" `Quick test_hermitian_unitary_predicates;
    Alcotest.test_case "NaN fails comparisons" `Quick test_nan_fails_comparisons;
    Alcotest.test_case "jacobi 2x2" `Quick test_jacobi_2x2;
    Alcotest.test_case "jacobi diagonal" `Quick test_jacobi_diagonal;
    Alcotest.test_case "eigh reconstruction" `Quick test_eigh_reconstruction;
    Alcotest.test_case "eigh requires hermitian" `Quick test_eigh_requires_hermitian;
    Alcotest.test_case "expm unitary" `Quick test_expm_hermitian_unitary;
    Alcotest.test_case "expm pauli x" `Quick test_expm_pauli_x;
    prop_kron_mixed_product;
    prop_adjoint_antihomomorphism;
    prop_eigh_trace_preserved;
    prop_expm_preserves_norm;
    prop_boxed_bits;
  ]
