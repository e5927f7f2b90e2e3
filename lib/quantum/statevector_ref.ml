(* The boxed Complex.t implementation the flat kernels replaced, kept as the
   differential-testing oracle: its amplitudes and loops share nothing with
   Statevector's.  Clarity over speed: every Complex.add/mul here
   allocates, which is exactly the cost the flat path removes. *)
type t = { n : int; amps : Complex.t array }

let create n =
  if n < 1 || n > 24 then invalid_arg "Statevector_ref.create: supported range is 1..24 qubits";
  let amps = Array.make (1 lsl n) Complex.zero in
  amps.(0) <- Complex.one;
  { n; amps }

let amplitudes t = Array.copy t.amps

let check_qubit t q =
  if q < 0 || q >= t.n then
    invalid_arg (Printf.sprintf "Statevector_ref: qubit %d out of range" q)

let apply_matrix1 t m q =
  if Matrix.rows m <> 2 || Matrix.cols m <> 2 then
    invalid_arg "Statevector_ref.apply_matrix1: expected 2x2";
  check_qubit t q;
  let mask = 1 lsl q in
  let m00 = Matrix.get m 0 0 and m01 = Matrix.get m 0 1 in
  let m10 = Matrix.get m 1 0 and m11 = Matrix.get m 1 1 in
  let dim = Array.length t.amps in
  let i = ref 0 in
  while !i < dim do
    if !i land mask = 0 then begin
      let a0 = t.amps.(!i) and a1 = t.amps.(!i lor mask) in
      t.amps.(!i) <- Complex.add (Complex.mul m00 a0) (Complex.mul m01 a1);
      t.amps.(!i lor mask) <- Complex.add (Complex.mul m10 a0) (Complex.mul m11 a1)
    end;
    incr i
  done

let apply_matrix2 t m q_first q_second =
  if Matrix.rows m <> 4 || Matrix.cols m <> 4 then
    invalid_arg "Statevector_ref.apply_matrix2: expected 4x4";
  check_qubit t q_first;
  check_qubit t q_second;
  if q_first = q_second then invalid_arg "Statevector_ref.apply_matrix2: duplicate qubit";
  let hi = 1 lsl q_first and lo = 1 lsl q_second in
  let dim = Array.length t.amps in
  (* Hoisted once per call: a flat [Matrix.get] allocates. *)
  let entries = Array.init 16 (fun k -> Matrix.get m (k / 4) (k mod 4)) in
  let entry r c = entries.((r * 4) + c) in
  for i = 0 to dim - 1 do
    if i land hi = 0 && i land lo = 0 then begin
      let i00 = i in
      let i01 = i lor lo in
      let i10 = i lor hi in
      let i11 = i lor hi lor lo in
      let a = [| t.amps.(i00); t.amps.(i01); t.amps.(i10); t.amps.(i11) |] in
      let out r =
        let acc = ref Complex.zero in
        for c = 0 to 3 do
          acc := Complex.add !acc (Complex.mul (entry r c) a.(c))
        done;
        !acc
      in
      t.amps.(i00) <- out 0;
      t.amps.(i01) <- out 1;
      t.amps.(i10) <- out 2;
      t.amps.(i11) <- out 3
    end
  done

let apply t gate qubits =
  match (Gate.arity gate, qubits) with
  | 1, [ q ] -> apply_matrix1 t (Gate.unitary gate) q
  | 2, [ a; b ] -> apply_matrix2 t (Gate.unitary gate) a b
  | _ ->
    invalid_arg
      (Printf.sprintf "Statevector_ref.apply: %s applied to %d operand(s)" (Gate.name gate)
         (List.length qubits))

let of_circuit circuit =
  let t = create (Circuit.n_qubits circuit) in
  Array.iter
    (fun app -> apply t app.Gate.gate (Array.to_list app.Gate.qubits))
    (Circuit.instructions circuit);
  t
