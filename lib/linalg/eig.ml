let jacobi_symmetric ?(max_sweeps = 100) ?(tol = 1e-12) a =
  let n = Array.length a in
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Eig.jacobi_symmetric: not square")
    a;
  let m = Array.map Array.copy a in
  (* v.(r).(c): accumulated orthogonal transform; column c converges to the
     eigenvector of eigenvalue m.(c).(c). *)
  let v = Array.init n (fun r -> Array.init n (fun c -> if r = c then 1.0 else 0.0)) in
  let off_diagonal_norm () =
    let acc = ref 0.0 in
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        acc := !acc +. (m.(p).(q) *. m.(p).(q))
      done
    done;
    sqrt !acc
  in
  let rotate p q =
    let apq = m.(p).(q) in
    if Float.abs apq > 1e-300 then begin
      let theta = (m.(q).(q) -. m.(p).(p)) /. (2.0 *. apq) in
      let t =
        let sign = if theta >= 0.0 then 1.0 else -1.0 in
        sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
      in
      let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
      let s = t *. c in
      for k = 0 to n - 1 do
        let mkp = m.(k).(p) and mkq = m.(k).(q) in
        m.(k).(p) <- (c *. mkp) -. (s *. mkq);
        m.(k).(q) <- (s *. mkp) +. (c *. mkq)
      done;
      for k = 0 to n - 1 do
        let mpk = m.(p).(k) and mqk = m.(q).(k) in
        m.(p).(k) <- (c *. mpk) -. (s *. mqk);
        m.(q).(k) <- (s *. mpk) +. (c *. mqk)
      done;
      for k = 0 to n - 1 do
        let vkp = v.(k).(p) and vkq = v.(k).(q) in
        v.(k).(p) <- (c *. vkp) -. (s *. vkq);
        v.(k).(q) <- (s *. vkp) +. (c *. vkq)
      done
    end
  in
  let sweeps = ref 0 in
  while off_diagonal_norm () > tol && !sweeps < max_sweeps do
    incr sweeps;
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        rotate p q
      done
    done
  done;
  let order = List.init n Fun.id in
  let sorted = List.sort (fun i j -> compare m.(i).(i) m.(j).(j)) order in
  let eigenvalues = Array.of_list (List.map (fun i -> m.(i).(i)) sorted) in
  let eigenvectors =
    Array.of_list (List.map (fun i -> Array.init n (fun r -> v.(r).(i))) sorted)
  in
  (eigenvalues, eigenvectors)

let eigh h =
  if not (Matrix.is_hermitian ~tol:1e-8 h) then invalid_arg "Eig.eigh: matrix is not Hermitian";
  let n = Matrix.rows h in
  (* Real-symmetric embedding [[A, -B]; [B, A]] of H = A + iB. *)
  let embedded =
    Array.init (2 * n) (fun r ->
        Array.init (2 * n) (fun c ->
            let entry rr cc = Matrix.get h rr cc in
            if r < n && c < n then (entry r c).Complex.re
            else if r < n then -.(entry r (c - n)).Complex.im
            else if c < n then (entry (r - n) c).Complex.im
            else (entry (r - n) (c - n)).Complex.re))
  in
  let eigenvalues, eigenvectors = jacobi_symmetric embedded in
  (* Every eigenpair of H appears twice; take one representative per pair. *)
  let values = Array.init n (fun k -> eigenvalues.(2 * k)) in
  let vectors = Matrix.create n n in
  for k = 0 to n - 1 do
    let w = eigenvectors.(2 * k) in
    let z = Array.init n (fun r -> { Complex.re = w.(r); im = w.(r + n) }) in
    let norm = sqrt (Array.fold_left (fun acc c -> acc +. Complex_ext.norm2 c) 0.0 z) in
    for r = 0 to n - 1 do
      Matrix.set vectors r k (Complex_ext.scale (1.0 /. norm) z.(r))
    done
  done;
  (values, vectors)

let expm_hermitian h t =
  let values, vectors = eigh h in
  let n = Matrix.rows h in
  let phases = Matrix.create n n in
  for r = 0 to n - 1 do
    Matrix.set phases r r (Complex_ext.exp_i (-.values.(r) *. t))
  done;
  Matrix.mul (Matrix.mul vectors phases) (Matrix.adjoint vectors)
