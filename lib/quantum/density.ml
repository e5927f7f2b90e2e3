(* The density matrix lives in a Matrix (split re/im, row-major); the
   superoperator kernels below run allocation-free over its raw buffers
   with gate entries hoisted out of the loops.  apply_kraus1 keeps two
   scratch planes on the state and reuses them across channel applications
   instead of copying full matrices per Kraus operator.  The two events
   run_steps meets most often, Pauli channels and crosstalk exchanges, have
   closed-form kernels of their own (apply_pauli, apply_exchange) that
   evaluate the general route's float expressions without its exact-zero
   products.  None of these kernels is shared with Statevector or
   Noisy_sim, so this module stays an independent reference for them. *)

type scratch = {
  orig_re : float array;
  orig_im : float array;
  acc_re : float array;
  acc_im : float array;
}

type t = { n : int; rho : Matrix.t; mutable scratch : scratch option }

let create n =
  if n < 1 || n > 10 then invalid_arg "Density.create: supported range is 1..10 qubits";
  let dim = 1 lsl n in
  let rho = Matrix.create dim dim in
  Matrix.set rho 0 0 Complex.one;
  { n; rho; scratch = None }

let dim t = 1 lsl t.n

let of_matrix m =
  let d = Matrix.rows m in
  let n = Float.to_int (Float.log2 (float_of_int d)) in
  if Matrix.cols m <> d || 1 lsl n <> d then
    invalid_arg "Density.of_matrix: expected a 2^n x 2^n matrix";
  let t = create n in
  let re, im = Matrix.buffers t.rho and src_re, src_im = Matrix.buffers m in
  Array.blit src_re 0 re 0 (d * d);
  Array.blit src_im 0 im 0 (d * d);
  t

let to_matrix t =
  let d = dim t in
  let m = Matrix.create d d in
  let re, im = Matrix.buffers m and src_re, src_im = Matrix.buffers t.rho in
  Array.blit src_re 0 re 0 (d * d);
  Array.blit src_im 0 im 0 (d * d);
  m

let of_statevector sv =
  let n = Statevector.n_qubits sv in
  if n > 10 then invalid_arg "Density.of_statevector: too many qubits";
  let ar, ai = Statevector.buffers sv in
  let d = 1 lsl n in
  let rho = Matrix.create d d in
  let re, im = Matrix.buffers rho in
  for i = 0 to d - 1 do
    let row = i * d in
    let air = ar.{i} and aii = ai.{i} in
    for j = 0 to d - 1 do
      (* a_i * conj(a_j) *)
      re.(row + j) <- (air *. ar.{j}) +. (aii *. ai.{j});
      im.(row + j) <- (aii *. ar.{j}) -. (air *. ai.{j})
    done
  done;
  { n; rho; scratch = None }

let n_qubits t = t.n

let trace t =
  let d = dim t in
  let re, _ = Matrix.buffers t.rho in
  let acc = ref 0.0 in
  for k = 0 to d - 1 do
    acc := !acc +. re.((k * d) + k)
  done;
  !acc

let purity t =
  (* Re(Tr rho^2) = sum_ij Re(rho_ij rho_ji), without assuming hermiticity. *)
  let d = dim t in
  let re, im = Matrix.buffers t.rho in
  let acc = ref 0.0 in
  for i = 0 to d - 1 do
    for j = 0 to d - 1 do
      acc := !acc +. ((re.((i * d) + j) *. re.((j * d) + i)) -. (im.((i * d) + j) *. im.((j * d) + i)))
    done
  done;
  !acc

let population t k =
  let re, _ = Matrix.buffers t.rho in
  re.((k * dim t) + k)

let check_qubit t q =
  if q < 0 || q >= t.n then invalid_arg (Printf.sprintf "Density: qubit %d out of range" q)

let hoist1 m =
  let e r c = Matrix.get m r c in
  ( (e 0 0).Complex.re, (e 0 0).Complex.im, (e 0 1).Complex.re, (e 0 1).Complex.im,
    (e 1 0).Complex.re, (e 1 0).Complex.im, (e 1 1).Complex.re, (e 1 1).Complex.im )

(* rho <- (M on qubit q) rho : mixes row pairs *)
let left_mul1 t m q =
  check_qubit t q;
  let m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i = hoist1 m in
  let d = dim t in
  let re, im = Matrix.buffers t.rho in
  let mask = 1 lsl q in
  let low = mask - 1 in
  for k = 0 to (d lsr 1) - 1 do
    let i0 = ((k lsr q) lsl (q + 1)) lor (k land low) in
    let r0 = i0 * d and r1 = (i0 lor mask) * d in
    for j = 0 to d - 1 do
      let ar = re.(r0 + j) and ai = im.(r0 + j) in
      let br = re.(r1 + j) and bi = im.(r1 + j) in
      re.(r0 + j) <- (m00r *. ar) -. (m00i *. ai) +. ((m01r *. br) -. (m01i *. bi));
      im.(r0 + j) <- (m00r *. ai) +. (m00i *. ar) +. ((m01r *. bi) +. (m01i *. br));
      re.(r1 + j) <- (m10r *. ar) -. (m10i *. ai) +. ((m11r *. br) -. (m11i *. bi));
      im.(r1 + j) <- (m10r *. ai) +. (m10i *. ar) +. ((m11r *. bi) +. (m11i *. br))
    done
  done

(* rho <- rho (M on qubit q) : mixes column pairs *)
let right_mul1 t m q =
  check_qubit t q;
  let m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i = hoist1 m in
  let d = dim t in
  let re, im = Matrix.buffers t.rho in
  let mask = 1 lsl q in
  let low = mask - 1 in
  for k = 0 to (d lsr 1) - 1 do
    let j0 = ((k lsr q) lsl (q + 1)) lor (k land low) in
    let j1 = j0 lor mask in
    for i = 0 to d - 1 do
      let row = i * d in
      let ar = re.(row + j0) and ai = im.(row + j0) in
      let br = re.(row + j1) and bi = im.(row + j1) in
      (* a*m00 + b*m10  |  a*m01 + b*m11 *)
      re.(row + j0) <- (ar *. m00r) -. (ai *. m00i) +. ((br *. m10r) -. (bi *. m10i));
      im.(row + j0) <- (ar *. m00i) +. (ai *. m00r) +. ((br *. m10i) +. (bi *. m10r));
      re.(row + j1) <- (ar *. m01r) -. (ai *. m01i) +. ((br *. m11r) -. (bi *. m11i));
      im.(row + j1) <- (ar *. m01i) +. (ai *. m01r) +. ((br *. m11i) +. (bi *. m11r))
    done
  done

let apply_unitary1 t u q =
  if Matrix.rows u <> 2 || Matrix.cols u <> 2 then
    invalid_arg "Density.apply_unitary1: expected 2x2";
  left_mul1 t u q;
  right_mul1 t (Matrix.adjoint u) q

let hoist2 m =
  Array.init 16 (fun k ->
      let z = Matrix.get m (k / 4) (k mod 4) in
      (z.Complex.re, z.Complex.im))

let left_mul2 t m q_first q_second =
  let hi = 1 lsl q_first and lo = 1 lsl q_second in
  let d = dim t in
  let g = hoist2 m in
  let re, im = Matrix.buffers t.rho in
  let p = min q_first q_second and r = max q_first q_second in
  let lowp = (1 lsl p) - 1 and lowr = (1 lsl r) - 1 in
  for k = 0 to (d lsr 2) - 1 do
    let s = ((k lsr p) lsl (p + 1)) lor (k land lowp) in
    let i00 = ((s lsr r) lsl (r + 1)) lor (s land lowr) in
    let r0 = i00 * d
    and r1 = (i00 lor lo) * d
    and r2 = (i00 lor hi) * d
    and r3 = (i00 lor hi lor lo) * d in
    for j = 0 to d - 1 do
      let a0r = re.(r0 + j) and a0i = im.(r0 + j) in
      let a1r = re.(r1 + j) and a1i = im.(r1 + j) in
      let a2r = re.(r2 + j) and a2i = im.(r2 + j) in
      let a3r = re.(r3 + j) and a3i = im.(r3 + j) in
      let out row base =
        let g0r, g0i = g.(row * 4)
        and g1r, g1i = g.((row * 4) + 1)
        and g2r, g2i = g.((row * 4) + 2)
        and g3r, g3i = g.((row * 4) + 3) in
        re.(base + j) <-
          (g0r *. a0r) -. (g0i *. a0i)
          +. ((g1r *. a1r) -. (g1i *. a1i))
          +. ((g2r *. a2r) -. (g2i *. a2i))
          +. ((g3r *. a3r) -. (g3i *. a3i));
        im.(base + j) <-
          (g0r *. a0i) +. (g0i *. a0r)
          +. ((g1r *. a1i) +. (g1i *. a1r))
          +. ((g2r *. a2i) +. (g2i *. a2r))
          +. ((g3r *. a3i) +. (g3i *. a3r))
      in
      out 0 r0;
      out 1 r1;
      out 2 r2;
      out 3 r3
    done
  done

let right_mul2 t m q_first q_second =
  let hi = 1 lsl q_first and lo = 1 lsl q_second in
  let d = dim t in
  let g = hoist2 m in
  let re, im = Matrix.buffers t.rho in
  let p = min q_first q_second and r = max q_first q_second in
  let lowp = (1 lsl p) - 1 and lowr = (1 lsl r) - 1 in
  for k = 0 to (d lsr 2) - 1 do
    let s = ((k lsr p) lsl (p + 1)) lor (k land lowp) in
    let j00 = ((s lsr r) lsl (r + 1)) lor (s land lowr) in
    let j0 = j00 and j1 = j00 lor lo and j2 = j00 lor hi and j3 = j00 lor hi lor lo in
    for i = 0 to d - 1 do
      let row = i * d in
      let a0r = re.(row + j0) and a0i = im.(row + j0) in
      let a1r = re.(row + j1) and a1i = im.(row + j1) in
      let a2r = re.(row + j2) and a2i = im.(row + j2) in
      let a3r = re.(row + j3) and a3i = im.(row + j3) in
      let out col j =
        (* sum_k old_k * m[k][col] *)
        let g0r, g0i = g.(col)
        and g1r, g1i = g.(4 + col)
        and g2r, g2i = g.(8 + col)
        and g3r, g3i = g.(12 + col) in
        re.(row + j) <-
          (a0r *. g0r) -. (a0i *. g0i)
          +. ((a1r *. g1r) -. (a1i *. g1i))
          +. ((a2r *. g2r) -. (a2i *. g2i))
          +. ((a3r *. g3r) -. (a3i *. g3i));
        im.(row + j) <-
          (a0r *. g0i) +. (a0i *. g0r)
          +. ((a1r *. g1i) +. (a1i *. g1r))
          +. ((a2r *. g2i) +. (a2i *. g2r))
          +. ((a3r *. g3i) +. (a3i *. g3r))
      in
      out 0 j0;
      out 1 j1;
      out 2 j2;
      out 3 j3
    done
  done

let apply_unitary2 t u q_first q_second =
  if Matrix.rows u <> 4 || Matrix.cols u <> 4 then
    invalid_arg "Density.apply_unitary2: expected 4x4";
  check_qubit t q_first;
  check_qubit t q_second;
  if q_first = q_second then invalid_arg "Density.apply_unitary2: duplicate qubit";
  left_mul2 t u q_first q_second;
  right_mul2 t (Matrix.adjoint u) q_first q_second

let apply_gate t gate qubits =
  match (Gate.arity gate, qubits) with
  | 1, [ q ] -> apply_unitary1 t (Gate.unitary gate) q
  | 2, [ a; b ] -> apply_unitary2 t (Gate.unitary gate) a b
  | _ -> invalid_arg "Density.apply_gate: operand count mismatch"

let check_completeness kraus =
  let sum =
    List.fold_left
      (fun acc k -> Matrix.add acc (Matrix.mul (Matrix.adjoint k) k))
      (Matrix.create 2 2) kraus
  in
  if not (Matrix.approx_equal ~tol:1e-6 sum (Matrix.identity 2)) then
    invalid_arg "Density.apply_kraus1: Kraus operators do not sum to identity"

let scratch t =
  match t.scratch with
  | Some s -> s
  | None ->
    let len = dim t * dim t in
    let s =
      {
        orig_re = Array.make len 0.0;
        orig_im = Array.make len 0.0;
        acc_re = Array.make len 0.0;
        acc_im = Array.make len 0.0;
      }
    in
    t.scratch <- Some s;
    s

let apply_kraus1 t kraus q =
  check_qubit t q;
  check_completeness kraus;
  let re, im = Matrix.buffers t.rho in
  let len = Array.length re in
  let s = scratch t in
  Array.blit re 0 s.orig_re 0 len;
  Array.blit im 0 s.orig_im 0 len;
  Array.fill s.acc_re 0 len 0.0;
  Array.fill s.acc_im 0 len 0.0;
  List.iter
    (fun k ->
      (* Reuse rho itself as the per-operator working plane: restore the
         original, conjugate by K, accumulate K rho K† into the scratch. *)
      Array.blit s.orig_re 0 re 0 len;
      Array.blit s.orig_im 0 im 0 len;
      left_mul1 t k q;
      right_mul1 t (Matrix.adjoint k) q;
      for i = 0 to len - 1 do
        s.acc_re.(i) <- s.acc_re.(i) +. re.(i);
        s.acc_im.(i) <- s.acc_im.(i) +. im.(i)
      done)
    kraus;
  Array.blit s.acc_re 0 re 0 len;
  Array.blit s.acc_im 0 im 0 len

let c re = { Complex.re; im = 0.0 }

let amplitude_damping ~gamma =
  if gamma < 0.0 || gamma > 1.0 then invalid_arg "Density.amplitude_damping: gamma in [0,1]";
  [
    Matrix.of_arrays [| [| Complex.one; Complex.zero |]; [| Complex.zero; c (sqrt (1.0 -. gamma)) |] |];
    Matrix.of_arrays [| [| Complex.zero; c (sqrt gamma) |]; [| Complex.zero; Complex.zero |] |];
  ]

let phase_damping ~lambda =
  if lambda < 0.0 || lambda > 1.0 then invalid_arg "Density.phase_damping: lambda in [0,1]";
  [
    Matrix.of_arrays [| [| Complex.one; Complex.zero |]; [| Complex.zero; c (sqrt (1.0 -. lambda)) |] |];
    Matrix.of_arrays [| [| Complex.zero; Complex.zero |]; [| Complex.zero; c (sqrt lambda) |] |];
  ]

let thermal_relaxation t ~q ~t1 ~t2 ~time =
  if t1 <= 0.0 || t2 <= 0.0 then invalid_arg "Density.thermal_relaxation: T1, T2 positive";
  if time < 0.0 then invalid_arg "Density.thermal_relaxation: negative time";
  let gamma = 1.0 -. exp (-.time /. t1) in
  let phi_rate = Float.max 0.0 ((1.0 /. t2) -. (1.0 /. (2.0 *. t1))) in
  (* off-diagonals decay by e^{-t phi_rate}: sqrt(1 - lambda) = e^{-t phi_rate} *)
  let lambda = 1.0 -. exp (-2.0 *. time *. phi_rate) in
  apply_kraus1 t (amplitude_damping ~gamma) q;
  apply_kraus1 t (phase_damping ~lambda) q

(* Seeded faults for the verification harness (DESIGN.md §11). *)
let fault_pauli_y_sign = Fault.enabled "density-pauli-y-sign"

let fault_exchange_phase = Fault.enabled "density-exchange-phase"

(* The Pauli channel as apply_kraus1 would run it on the Kraus operators
   s_k P_k (P = I, X, Y, Z; s_k = sqrt (max 0 p_k), p_0 = 1 - p_x - p_y -
   p_z), in one in-place pass over the 2x2 blocks [x00 x01; x10 x11] of
   qubit q.  The channel is real-linear, so the re and im planes take the
   same pass.  With u_k x = (s_k x) s_k, each entry is 0 + u_0 + u_1 +- u_2
   +- u_3 in Kraus order: a diagonal entry reads its own diagonal under I
   and Z and the opposite one under X and Y, all added; a coherence reads
   itself under I and Z and its transpose partner under X and Y, with Y and
   Z subtracted.  That is the Kraus route's float expression with its
   exact-zero products dropped (DESIGN.md §9). *)
let apply_pauli t ~p_x ~p_y ~p_z q =
  let p0 = 1.0 -. p_x -. p_y -. p_z in
  if p0 < -1e-12 then invalid_arg "Density.pauli_channel: probabilities exceed 1";
  check_qubit t q;
  let scale p = sqrt (Float.max 0.0 p) in
  let s0 = scale p0 and s1 = scale p_x and s2 = scale p_y and s3 = scale p_z in
  (* apply_kraus1's completeness check on these operators: the sum of
     K_k† K_k is (0 + s0 s0 + s1 s1 + s2 s2 + s3 s3) times the identity,
     with exact-zero off-diagonals, held to 1e-6; NaN fails. *)
  let total = 0.0 +. (s0 *. s0) +. (s1 *. s1) +. (s2 *. s2) +. (s3 *. s3) in
  if not (Float.abs (total -. 1.0) <= 1e-6) then
    invalid_arg "Density.apply_kraus1: Kraus operators do not sum to identity";
  (* (-s2 x) s2 is exactly -((s2 x) s2): the fault turns the Y coherence
     term's sign. *)
  let y2 = if fault_pauli_y_sign then -.s2 else s2 in
  let d = dim t in
  let mask = 1 lsl q in
  let block = mask lsl 1 in
  let pass x =
    let ib = ref 0 in
    while !ib < d do
      for i0 = !ib to !ib + mask - 1 do
        let r0 = i0 * d and r1 = (i0 + mask) * d in
        let jb = ref 0 in
        while !jb < d do
          for j0 = !jb to !jb + mask - 1 do
            let j1 = j0 + mask in
            let x00 = x.(r0 + j0) and x01 = x.(r0 + j1) in
            let x10 = x.(r1 + j0) and x11 = x.(r1 + j1) in
            x.(r0 + j0) <-
              0.0 +. (s0 *. x00 *. s0) +. (s1 *. x11 *. s1) +. (s2 *. x11 *. s2) +. (s3 *. x00 *. s3);
            x.(r1 + j1) <-
              0.0 +. (s0 *. x11 *. s0) +. (s1 *. x00 *. s1) +. (s2 *. x00 *. s2) +. (s3 *. x11 *. s3);
            x.(r0 + j1) <-
              0.0 +. (s0 *. x01 *. s0) +. (s1 *. x10 *. s1) -. (y2 *. x10 *. s2) -. (s3 *. x01 *. s3);
            x.(r1 + j0) <-
              0.0 +. (s0 *. x10 *. s0) +. (s1 *. x01 *. s1) -. (y2 *. x01 *. s2) -. (s3 *. x10 *. s3)
          done;
          jb := !jb + block
        done
      done;
      ib := !ib + block
    done
  in
  let re, im = Matrix.buffers t.rho in
  pass re;
  pass im

(* The partial exchange U = [[1,0,0,0],[0,c,-is,0],[0,-is,c,0],[0,0,0,1]]
   (c = cos theta, s = sin theta) as rho <- U rho U†, touching only what U
   mixes: the |01>,|10> rows of every column (U rho), then the same columns
   of every row (rho U†).  Each entry is the dense conjugation's float
   expression with its +-0 products dropped (DESIGN.md §9).  U is
   symmetric under swapping its operands, and so is each two-term sum. *)
let apply_exchange t ~theta a b =
  check_qubit t a;
  check_qubit t b;
  if a = b then invalid_arg "Density.apply_unitary2: duplicate qubit";
  let c = cos theta in
  let s = if fault_exchange_phase then -.sin theta else sin theta in
  let d = dim t in
  let re, im = Matrix.buffers t.rho in
  let m1 = 1 lsl a and m2 = 1 lsl b in
  let p = min a b and r = max a b in
  let lowp = (1 lsl p) - 1 and lowr = (1 lsl r) - 1 in
  let base k =
    let v = ((k lsr p) lsl (p + 1)) lor (k land lowp) in
    ((v lsr r) lsl (r + 1)) lor (v land lowr)
  in
  for k = 0 to (d lsr 2) - 1 do
    let b00 = base k in
    let r1 = (b00 lor m1) * d and r2 = (b00 lor m2) * d in
    for j = 0 to d - 1 do
      let a1r = re.(r1 + j) and a1i = im.(r1 + j) in
      let a2r = re.(r2 + j) and a2i = im.(r2 + j) in
      re.(r1 + j) <- (c *. a1r) +. (s *. a2i);
      im.(r1 + j) <- (c *. a1i) -. (s *. a2r);
      re.(r2 + j) <- (c *. a2r) +. (s *. a1i);
      im.(r2 + j) <- (c *. a2i) -. (s *. a1r)
    done
  done;
  for k = 0 to (d lsr 2) - 1 do
    let b00 = base k in
    let j1 = b00 lor m1 and j2 = b00 lor m2 in
    for i = 0 to d - 1 do
      let row = i * d in
      let a1r = re.(row + j1) and a1i = im.(row + j1) in
      let a2r = re.(row + j2) and a2i = im.(row + j2) in
      re.(row + j1) <- (c *. a1r) -. (s *. a2i);
      im.(row + j1) <- (c *. a1i) +. (s *. a2r);
      re.(row + j2) <- (c *. a2r) -. (s *. a1i);
      im.(row + j2) <- (c *. a2i) +. (s *. a1r)
    done
  done

let run_steps ~n_qubits steps =
  let t = create n_qubits in
  List.iter
    (List.iter (function
      | Noisy_sim.Unitary (gate, qubits) -> apply_gate t gate qubits
      | Noisy_sim.Partial_exchange { a; b; theta } -> apply_exchange t ~theta a b
      | Noisy_sim.Pauli_noise { q; p_x; p_y; p_z } -> apply_pauli t ~p_x ~p_y ~p_z q))
    steps;
  t

let fidelity_pure t sv =
  if Statevector.n_qubits sv <> t.n then invalid_arg "Density.fidelity_pure: size mismatch";
  let ar, ai = Statevector.buffers sv in
  let d = dim t in
  let re, im = Matrix.buffers t.rho in
  (* Re( sum_ij conj(a_i) rho_ij a_j ) *)
  let acc = ref 0.0 in
  for i = 0 to d - 1 do
    let row = i * d in
    let cir = ar.{i} and cii = ai.{i} in
    for j = 0 to d - 1 do
      let rr = re.(row + j) and ri = im.(row + j) in
      let tr = (rr *. ar.{j}) -. (ri *. ai.{j}) in
      let ti = (rr *. ai.{j}) +. (ri *. ar.{j}) in
      acc := !acc +. ((cir *. tr) +. (cii *. ti))
    done
  done;
  !acc
