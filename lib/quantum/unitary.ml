let of_circuit circuit =
  let n = Circuit.n_qubits circuit in
  let dim = 1 lsl n in
  let u = Matrix.create dim dim in
  let ure, uim = Matrix.buffers u in
  (* One state reused for all basis columns: reset, place the 1 at |k>,
     simulate, and copy the flat amplitudes straight into column k. *)
  let state = Statevector.create n in
  let sre, sim = Statevector.buffers state in
  for k = 0 to dim - 1 do
    Statevector.reset state;
    sre.{0} <- 0.0;
    sre.{k} <- 1.0;
    Statevector.run state circuit;
    for r = 0 to dim - 1 do
      ure.((r * dim) + k) <- sre.{r};
      uim.((r * dim) + k) <- sim.{r}
    done
  done;
  u

let of_gate gate qubits ~n_qubits =
  of_circuit (Circuit.of_gates n_qubits [ (gate, qubits) ])

let largest_entry m =
  let best = ref (0, 0) and best_norm = ref 0.0 in
  for r = 0 to Matrix.rows m - 1 do
    for c = 0 to Matrix.cols m - 1 do
      let v = Complex.norm (Matrix.get m r c) in
      if v > !best_norm then begin
        best_norm := v;
        best := (r, c)
      end
    done
  done;
  !best

let global_phase_between ?(tol = 1e-7) a b =
  if Matrix.rows a <> Matrix.rows b || Matrix.cols a <> Matrix.cols b then None
  else begin
    let r, c = largest_entry b in
    if Complex.norm (Matrix.get a r c) < tol then None
    else begin
      let phase = Complex.div (Matrix.get b r c) (Matrix.get a r c) in
      if
        Float.abs (Complex.norm phase -. 1.0) < tol
        && Matrix.approx_equal ~tol (Matrix.scale phase a) b
      then Some phase
      else None
    end
  end

let equal_up_to_phase ?tol a b = global_phase_between ?tol a b <> None

let equivalent ?tol a b =
  if Circuit.n_qubits a <> Circuit.n_qubits b then
    invalid_arg "Unitary.equivalent: qubit count mismatch";
  equal_up_to_phase ?tol (of_circuit a) (of_circuit b)
