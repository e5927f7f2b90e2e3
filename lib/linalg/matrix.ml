type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: non-positive dimension";
  { rows; cols; re = Array.make (rows * cols) 0.0; im = Array.make (rows * cols) 0.0 }

let rows m = m.rows

let cols m = m.cols

let buffers m = (m.re, m.im)

let index m r c =
  if r < 0 || r >= m.rows || c < 0 || c >= m.cols then
    invalid_arg (Printf.sprintf "Matrix: index (%d,%d) out of %dx%d" r c m.rows m.cols);
  (r * m.cols) + c

let get m r c =
  let k = index m r c in
  { Complex.re = m.re.(k); im = m.im.(k) }

let set m r c v =
  let k = index m r c in
  m.re.(k) <- v.Complex.re;
  m.im.(k) <- v.Complex.im

let init rows cols f =
  let m = create rows cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let z = f r c in
      m.re.((r * cols) + c) <- z.Complex.re;
      m.im.((r * cols) + c) <- z.Complex.im
    done
  done;
  m

let identity n =
  let m = create n n in
  for k = 0 to n - 1 do
    m.re.((k * n) + k) <- 1.0
  done;
  m

let of_arrays arr =
  let rows = Array.length arr in
  if rows = 0 then invalid_arg "Matrix.of_arrays: empty";
  let cols = Array.length arr.(0) in
  if cols = 0 then invalid_arg "Matrix.of_arrays: empty row";
  Array.iter
    (fun row -> if Array.length row <> cols then invalid_arg "Matrix.of_arrays: ragged rows")
    arr;
  init rows cols (fun r c -> arr.(r).(c))

(* The entries of [add], [scale], [scale_re], [mul], [kron] and [mat_vec] are
   the float expressions [Complex.add]/[Complex.mul] compute on the same
   operands, so results match the boxed arithmetic bit for bit, sign of zero
   included. *)

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Matrix: dimension mismatch";
  {
    a with
    re = Array.mapi (fun k x -> x +. b.re.(k)) a.re;
    im = Array.mapi (fun k x -> x +. b.im.(k)) a.im;
  }

let scale s m =
  let sr = s.Complex.re and si = s.Complex.im in
  {
    m with
    re = Array.mapi (fun k x -> (sr *. x) -. (si *. m.im.(k))) m.re;
    im = Array.mapi (fun k y -> (sr *. y) +. (si *. m.re.(k))) m.im;
  }

let scale_re s m = scale { Complex.re = s; im = 0.0 } m

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
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

let kron a b =
  let out = create (a.rows * b.rows) (a.cols * b.cols) in
  for r = 0 to out.rows - 1 do
    for c = 0 to out.cols - 1 do
      let ka = ((r / b.rows) * a.cols) + (c / b.cols)
      and kb = ((r mod b.rows) * b.cols) + (c mod b.cols) in
      let xr = a.re.(ka) and xi = a.im.(ka) and yr = b.re.(kb) and yi = b.im.(kb) in
      out.re.((r * out.cols) + c) <- (xr *. yr) -. (xi *. yi);
      out.im.((r * out.cols) + c) <- (xr *. yi) +. (xi *. yr)
    done
  done;
  out

let mat_vec m v =
  if Array.length v <> m.cols then invalid_arg "Matrix.mat_vec: dimension mismatch";
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

let interleaved m =
  let n = m.rows * m.cols in
  let e = Array.make (2 * n) 0.0 in
  for k = 0 to n - 1 do
    e.(2 * k) <- m.re.(k);
    e.((2 * k) + 1) <- m.im.(k)
  done;
  e

(* [Float.max] propagates NaN, so a NaN entry on either side makes the
   result NaN and every [<= tol] test below false. *)
let max_abs_diff a b =
  let worst = ref 0.0 in
  for k = 0 to Array.length a.re - 1 do
    let dr = a.re.(k) -. b.re.(k) and di = a.im.(k) -. b.im.(k) in
    worst := Float.max !worst (sqrt ((dr *. dr) +. (di *. di)))
  done;
  !worst

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && max_abs_diff a b <= tol

let is_hermitian ?(tol = 1e-9) m = m.rows = m.cols && max_abs_diff m (adjoint m) <= tol
