type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Fmatrix.create: non-positive dimension";
  { rows; cols; re = Array.make (rows * cols) 0.0; im = Array.make (rows * cols) 0.0 }

let rows m = m.rows

let cols m = m.cols

let buffers m = (m.re, m.im)

let index m r c =
  if r < 0 || r >= m.rows || c < 0 || c >= m.cols then
    invalid_arg (Printf.sprintf "Fmatrix: index (%d,%d) out of %dx%d" r c m.rows m.cols);
  (r * m.cols) + c

let get m r c =
  let k = index m r c in
  { Complex.re = m.re.(k); im = m.im.(k) }

let set m r c v =
  let k = index m r c in
  m.re.(k) <- v.Complex.re;
  m.im.(k) <- v.Complex.im

let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }

let of_matrix a =
  let m = create (Matrix.rows a) (Matrix.cols a) in
  for r = 0 to m.rows - 1 do
    for c = 0 to m.cols - 1 do
      let z = Matrix.get a r c in
      let k = (r * m.cols) + c in
      m.re.(k) <- z.Complex.re;
      m.im.(k) <- z.Complex.im
    done
  done;
  m

let to_matrix m =
  Matrix.init m.rows m.cols (fun r c ->
      let k = (r * m.cols) + c in
      { Complex.re = m.re.(k); im = m.im.(k) })

let adjoint m =
  let a = create m.cols m.rows in
  for r = 0 to m.rows - 1 do
    for c = 0 to m.cols - 1 do
      let src = (r * m.cols) + c and dst = (c * m.rows) + r in
      a.re.(dst) <- m.re.(src);
      a.im.(dst) <- -.m.im.(src)
    done
  done;
  a

(* Unboxed i-k-j product: the accumulation runs over scalar floats held in
   registers, with the [a.(i,k)] entry hoisted out of the inner loop. *)
let mul a b =
  if a.cols <> b.rows then invalid_arg "Fmatrix.mul: dimension mismatch";
  let out = create a.rows b.cols in
  let n = b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let ar = a.re.((i * a.cols) + k) and ai = a.im.((i * a.cols) + k) in
      if ar <> 0.0 || ai <> 0.0 then begin
        let brow = k * n and orow = i * n in
        for j = 0 to n - 1 do
          let br = b.re.(brow + j) and bi = b.im.(brow + j) in
          out.re.(orow + j) <- out.re.(orow + j) +. ((ar *. br) -. (ai *. bi));
          out.im.(orow + j) <- out.im.(orow + j) +. ((ar *. bi) +. (ai *. br))
        done
      end
    done
  done;
  out

(* Row-major interleaved [|re; im; re; im; ...|] — the entries layout the
   statevector kernels hoist into scalar lets. *)
let interleaved m =
  let n = m.rows * m.cols in
  let e = Array.make (2 * n) 0.0 in
  for k = 0 to n - 1 do
    e.(2 * k) <- m.re.(k);
    e.((2 * k) + 1) <- m.im.(k)
  done;
  e

let mat_vec m v =
  if Array.length v <> m.cols then invalid_arg "Fmatrix.mat_vec: dimension mismatch";
  (* Split the boxed input once, run the product on scalar floats. *)
  let vr = Array.map (fun z -> z.Complex.re) v in
  let vi = Array.map (fun z -> z.Complex.im) v in
  Array.init m.rows (fun r ->
      let row = r * m.cols in
      let accr = ref 0.0 and acci = ref 0.0 in
      for c = 0 to m.cols - 1 do
        let ar = m.re.(row + c) and ai = m.im.(row + c) in
        accr := !accr +. ((ar *. vr.(c)) -. (ai *. vi.(c)));
        acci := !acci +. ((ar *. vi.(c)) +. (ai *. vr.(c)))
      done;
      { Complex.re = !accr; im = !acci })

let trace m =
  let n = min m.rows m.cols in
  let accr = ref 0.0 and acci = ref 0.0 in
  for k = 0 to n - 1 do
    accr := !accr +. m.re.((k * m.cols) + k);
    acci := !acci +. m.im.((k * m.cols) + k)
  done;
  { Complex.re = !accr; im = !acci }

let frobenius_norm m =
  let acc = ref 0.0 in
  for k = 0 to Array.length m.re - 1 do
    acc := !acc +. ((m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k)))
  done;
  sqrt !acc

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Fmatrix: dimension mismatch";
  let worst = ref 0.0 in
  for k = 0 to Array.length a.re - 1 do
    let dr = a.re.(k) -. b.re.(k) and di = a.im.(k) -. b.im.(k) in
    let d = sqrt ((dr *. dr) +. (di *. di)) in
    if d > !worst then worst := d
  done;
  !worst

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && max_abs_diff a b <= tol
