let evolve h psi0 t =
  Matrix.mat_vec (Eig.expm_hermitian h t) psi0

let basis_state dim k =
  if k < 0 || k >= dim then invalid_arg "Evolution.basis_state: index out of range";
  Array.init dim (fun j -> if j = k then Complex.one else Complex.zero)

let population psi k = Complex_ext.norm2 psi.(k)

let norm psi =
  sqrt (Array.fold_left (fun acc z -> acc +. Complex_ext.norm2 z) 0.0 psi)

let transition_probability h ~src ~dst ~t =
  let dim = Matrix.rows h in
  let psi = evolve h (basis_state dim src) t in
  population psi dst

let transition_series h ~src ~dst ~times =
  let dim = Matrix.rows h in
  let values, vectors = Eig.eigh h in
  (* <dst| V e^{-i lambda t} V† |src> = sum_k V_dst,k e^{-i lambda_k t} conj(V_src,k) *)
  let amplitudes =
    Array.init dim (fun k ->
        Complex.mul (Matrix.get vectors dst k) (Complex.conj (Matrix.get vectors src k)))
  in
  List.map
    (fun t ->
      let acc = ref Complex.zero in
      for k = 0 to dim - 1 do
        acc := Complex.add !acc (Complex.mul amplitudes.(k) (Complex_ext.exp_i (-.values.(k) *. t)))
      done;
      (t, Complex_ext.norm2 !acc))
    times
