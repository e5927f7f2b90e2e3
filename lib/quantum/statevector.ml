(* Amplitudes live in two Bigarray float64 planes (split re/im), outside
   the OCaml heap.  The kernels below are allocation-free loops over scalar
   floats with the 2x2 / 4x4 gate entries hoisted out of the loop, and they
   walk the state in nested blocks: loops over the high (and, for two
   operands, middle) blocks of the pair counter, whose index bases advance
   by addition, around one contiguous run of low bits.  The boxed
   implementation survives as Statevector_ref, the reference the
   differential suite checks this module against. *)

module A = Bigarray.Array1

type plane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { n : int; re : plane; im : plane }

(* Seeded faults for the verification harness (DESIGN.md §11); resolved
   once at module initialisation, so the kernels pay one load per call,
   never per index. *)
let fault_scatter = Fault.enabled "sim-scatter-off-by-one"

let fault_operand_swap = Fault.enabled "sim-operand-swap"

let fault_exchange_phase = Fault.enabled "sim-exchange-phase"

let fault_diag_index = Fault.enabled "sim-diag-index"

let create n =
  if n < 1 || n > 24 then invalid_arg "Statevector.create: supported range is 1..24 qubits";
  let dim = 1 lsl n in
  let re = A.create Bigarray.Float64 Bigarray.C_layout dim in
  let im = A.create Bigarray.Float64 Bigarray.C_layout dim in
  A.fill re 0.0;
  A.fill im 0.0;
  re.{0} <- 1.0;
  { n; re; im }

let dim t = 1 lsl t.n

let reset t =
  A.fill t.re 0.0;
  A.fill t.im 0.0;
  t.re.{0} <- 1.0

let of_amplitudes amps =
  let len = Array.length amps in
  if len = 0 || len land (len - 1) <> 0 then
    invalid_arg "Statevector.of_amplitudes: length must be a power of two";
  let n = ref 0 in
  while 1 lsl !n < len do
    incr n
  done;
  (* Unboxing copies: later mutation of the caller's array cannot alias the
     state (the boxed predecessor stored the array it was handed). *)
  let re = A.create Bigarray.Float64 Bigarray.C_layout len in
  let im = A.create Bigarray.Float64 Bigarray.C_layout len in
  for k = 0 to len - 1 do
    re.{k} <- amps.(k).Complex.re;
    im.{k} <- amps.(k).Complex.im
  done;
  { n = !n; re; im }

let n_qubits t = t.n

let copy t =
  let d = dim t in
  let re = A.create Bigarray.Float64 Bigarray.C_layout d in
  let im = A.create Bigarray.Float64 Bigarray.C_layout d in
  A.blit t.re re;
  A.blit t.im im;
  { t with re; im }

let blit ~src ~dst =
  if src.n <> dst.n then invalid_arg "Statevector.blit: qubit count mismatch";
  A.blit src.re dst.re;
  A.blit src.im dst.im

let buffers t = (t.re, t.im)

let amplitudes t = Array.init (dim t) (fun k -> { Complex.re = t.re.{k}; im = t.im.{k} })

let amplitude t k = { Complex.re = t.re.{k}; im = t.im.{k} }

let check_qubit t q =
  if q < 0 || q >= t.n then invalid_arg (Printf.sprintf "Statevector: qubit %d out of range" q)

(* --- gate entries in kernel form --- *)

(* The kernels consume gate matrices as interleaved [|re; im; ...|] rows, so
   a caller can pre-extract every matrix once and replay it without touching
   boxed [Complex.t] again. *)

let entries1 m =
  if Matrix.rows m <> 2 || Matrix.cols m <> 2 then
    invalid_arg "Statevector.entries1: expected 2x2";
  Matrix.interleaved m

let entries2 m =
  if Matrix.rows m <> 4 || Matrix.cols m <> 4 then
    invalid_arg "Statevector.entries2: expected 4x4";
  Matrix.interleaved m

(* --- kernels --- *)

(* Nested-block walk.  A 1q kernel on qubit [q] counts its amplitude pairs
   with a dense counter k = h*2^q + l (l < 2^q); the pair's |0> index is
   h*2^(q+1) + l, so the walk is a loop over high blocks [h], whose base
   advances by 2^(q+1), around a contiguous run of [l].  A 2q kernel on bits
   p < r splits k = h*2^(r-1) + m*2^p + l into a high block, a middle block
   and a low run, with index bases advancing by 2^(r+1) and 2^(p+1).  Every
   kernel walks the whole counter range, each pair or quartet exactly once,
   and allocates nothing.  The planes come from the state record, so they
   are typed [plane]; an unannotated plane compiles to generic Bigarray
   accessors that box every amplitude. *)

let apply_entries1 t e q =
  if Array.length e <> 8 then invalid_arg "Statevector.apply_entries1: expected 8 entries";
  check_qubit t q;
  let m00r = e.(0) and m00i = e.(1) and m01r = e.(2) and m01i = e.(3) in
  let m10r = e.(4) and m10i = e.(5) and m11r = e.(6) and m11i = e.(7) in
  let re = t.re and im = t.im in
  let run = 1 lsl q in
  (* The seeded fault drops the operand bit from the block stride, so
     consecutive blocks overlap and pairs alias. *)
  let stride = if fault_scatter then run else run lsl 1 in
  let base = ref 0 in
  for _ = 0 to (dim t lsr (q + 1)) - 1 do
    let b = !base in
    for i0 = b to b + run - 1 do
      let i1 = i0 lor run in
      let a0r = A.unsafe_get re i0 and a0i = A.unsafe_get im i0 in
      let a1r = A.unsafe_get re i1 and a1i = A.unsafe_get im i1 in
      A.unsafe_set re i0 ((m00r *. a0r) -. (m00i *. a0i) +. ((m01r *. a1r) -. (m01i *. a1i)));
      A.unsafe_set im i0 ((m00r *. a0i) +. (m00i *. a0r) +. ((m01r *. a1i) +. (m01i *. a1r)));
      A.unsafe_set re i1 ((m10r *. a0r) -. (m10i *. a0i) +. ((m11r *. a1r) -. (m11i *. a1i)));
      A.unsafe_set im i1 ((m10r *. a0i) +. (m10i *. a0r) +. ((m11r *. a1i) +. (m11i *. a1r)))
    done;
    base := b + stride
  done

(* Unchecked read of a gate entry; each kernel checks the entry count first.
   The 2q walk reads its 32 entries at every use instead of binding them:
   32 live floats (plus the 8 amplitudes) would not fit in registers, and
   their spills cost more than the loads. *)
external entry : float array -> int -> float = "%array_unsafe_get"

let apply_entries2 t e q_first q_second =
  if Array.length e <> 32 then invalid_arg "Statevector.apply_entries2: expected 32 entries";
  check_qubit t q_first;
  check_qubit t q_second;
  if q_first = q_second then invalid_arg "Statevector.apply_entries2: duplicate qubit";
  let hi_m = 1 lsl (if fault_operand_swap then q_second else q_first) in
  let lo_m = 1 lsl (if fault_operand_swap then q_first else q_second) in
  let re = t.re and im = t.im in
  let p = if q_first < q_second then q_first else q_second in
  let r = if q_first < q_second then q_second else q_first in
  let run = 1 lsl p and mid = (1 lsl (r - 1 - p)) - 1 in
  let bh = ref 0 in
  for _ = 0 to (dim t lsr (r + 1)) - 1 do
    let bm = ref !bh in
    for _ = 0 to mid do
      let b = !bm in
      for i00 = b to b + run - 1 do
        let i01 = i00 lor lo_m in
        let i10 = i00 lor hi_m in
        let i11 = i00 lor hi_m lor lo_m in
        let a0r = A.unsafe_get re i00 and a0i = A.unsafe_get im i00 in
        let a1r = A.unsafe_get re i01 and a1i = A.unsafe_get im i01 in
        let a2r = A.unsafe_get re i10 and a2i = A.unsafe_get im i10 in
        let a3r = A.unsafe_get re i11 and a3i = A.unsafe_get im i11 in
        A.unsafe_set re i00
          ((entry e 0 *. a0r) -. (entry e 1 *. a0i)
          +. ((entry e 2 *. a1r) -. (entry e 3 *. a1i))
          +. ((entry e 4 *. a2r) -. (entry e 5 *. a2i))
          +. ((entry e 6 *. a3r) -. (entry e 7 *. a3i)));
        A.unsafe_set im i00
          ((entry e 0 *. a0i) +. (entry e 1 *. a0r)
          +. ((entry e 2 *. a1i) +. (entry e 3 *. a1r))
          +. ((entry e 4 *. a2i) +. (entry e 5 *. a2r))
          +. ((entry e 6 *. a3i) +. (entry e 7 *. a3r)));
        A.unsafe_set re i01
          ((entry e 8 *. a0r) -. (entry e 9 *. a0i)
          +. ((entry e 10 *. a1r) -. (entry e 11 *. a1i))
          +. ((entry e 12 *. a2r) -. (entry e 13 *. a2i))
          +. ((entry e 14 *. a3r) -. (entry e 15 *. a3i)));
        A.unsafe_set im i01
          ((entry e 8 *. a0i) +. (entry e 9 *. a0r)
          +. ((entry e 10 *. a1i) +. (entry e 11 *. a1r))
          +. ((entry e 12 *. a2i) +. (entry e 13 *. a2r))
          +. ((entry e 14 *. a3i) +. (entry e 15 *. a3r)));
        A.unsafe_set re i10
          ((entry e 16 *. a0r) -. (entry e 17 *. a0i)
          +. ((entry e 18 *. a1r) -. (entry e 19 *. a1i))
          +. ((entry e 20 *. a2r) -. (entry e 21 *. a2i))
          +. ((entry e 22 *. a3r) -. (entry e 23 *. a3i)));
        A.unsafe_set im i10
          ((entry e 16 *. a0i) +. (entry e 17 *. a0r)
          +. ((entry e 18 *. a1i) +. (entry e 19 *. a1r))
          +. ((entry e 20 *. a2i) +. (entry e 21 *. a2r))
          +. ((entry e 22 *. a3i) +. (entry e 23 *. a3r)));
        A.unsafe_set re i11
          ((entry e 24 *. a0r) -. (entry e 25 *. a0i)
          +. ((entry e 26 *. a1r) -. (entry e 27 *. a1i))
          +. ((entry e 28 *. a2r) -. (entry e 29 *. a2i))
          +. ((entry e 30 *. a3r) -. (entry e 31 *. a3i)));
        A.unsafe_set im i11
          ((entry e 24 *. a0i) +. (entry e 25 *. a0r)
          +. ((entry e 26 *. a1i) +. (entry e 27 *. a1r))
          +. ((entry e 28 *. a2i) +. (entry e 29 *. a2r))
          +. ((entry e 30 *. a3i) +. (entry e 31 *. a3r)))
      done;
      bm := b + (run lsl 1)
    done;
    bh := !bh + (1 lsl (r + 1))
  done

(* The diagonal 4x4 diag(d00, d01, d10, d11), given as the 8 floats
   [|re; im|] of its entries in basis order (first operand = most
   significant), through the same nested quartet walk.  Each
   amplitude is multiplied by its own entry with the first product of the
   dense kernel's row; every other product there has a zero matrix entry,
   so, as for [apply_exchange] below, the results equal [apply_entries2]'s
   on the full matrix up to the sign of a zero amplitude. *)
let apply_diagonal2 t d q_first q_second =
  if Array.length d <> 8 then invalid_arg "Statevector.apply_diagonal2: expected 8 entries";
  check_qubit t q_first;
  check_qubit t q_second;
  if q_first = q_second then invalid_arg "Statevector.apply_diagonal2: duplicate qubit";
  (* The seeded fault exchanges the |10> and |11> entries. *)
  let k10 = if fault_diag_index then 6 else 4 and k11 = if fault_diag_index then 4 else 6 in
  let d00r = d.(0) and d00i = d.(1) and d01r = d.(2) and d01i = d.(3) in
  let d10r = d.(k10) and d10i = d.(k10 + 1) and d11r = d.(k11) and d11i = d.(k11 + 1) in
  let re = t.re and im = t.im in
  let hi_m = 1 lsl q_first and lo_m = 1 lsl q_second in
  let p = if q_first < q_second then q_first else q_second in
  let r = if q_first < q_second then q_second else q_first in
  let run = 1 lsl p and mid = (1 lsl (r - 1 - p)) - 1 in
  let bh = ref 0 in
  for _ = 0 to (dim t lsr (r + 1)) - 1 do
    let bm = ref !bh in
    for _ = 0 to mid do
      let b = !bm in
      for i00 = b to b + run - 1 do
        let i01 = i00 lor lo_m in
        let i10 = i00 lor hi_m in
        let i11 = i00 lor hi_m lor lo_m in
        let a0r = A.unsafe_get re i00 and a0i = A.unsafe_get im i00 in
        let a1r = A.unsafe_get re i01 and a1i = A.unsafe_get im i01 in
        let a2r = A.unsafe_get re i10 and a2i = A.unsafe_get im i10 in
        let a3r = A.unsafe_get re i11 and a3i = A.unsafe_get im i11 in
        A.unsafe_set re i00 ((d00r *. a0r) -. (d00i *. a0i));
        A.unsafe_set im i00 ((d00r *. a0i) +. (d00i *. a0r));
        A.unsafe_set re i01 ((d01r *. a1r) -. (d01i *. a1i));
        A.unsafe_set im i01 ((d01r *. a1i) +. (d01i *. a1r));
        A.unsafe_set re i10 ((d10r *. a2r) -. (d10i *. a2i));
        A.unsafe_set im i10 ((d10r *. a2i) +. (d10i *. a2r));
        A.unsafe_set re i11 ((d11r *. a3r) -. (d11i *. a3i));
        A.unsafe_set im i11 ((d11r *. a3i) +. (d11i *. a3r))
      done;
      bm := b + (run lsl 1)
    done;
    bh := !bh + (1 lsl (r + 1))
  done

(* The partial exchange [[1,0,0,0],[0,c,-is,0],[0,-is,c,0],[0,0,0,1]] through
   the same nested quartet walk as [apply_entries2], touching only the
   |01>,|10> pair.  Every product the dense kernel would add on top of these
   four expressions has a zero matrix entry, so it is an exact ±0: the results
   equal [apply_entries2 (entries2 (exchange_unitary theta))] as floats, and
   only the sign of a zero amplitude can differ. *)
let apply_exchange t ~c ~s q_first q_second =
  check_qubit t q_first;
  check_qubit t q_second;
  if q_first = q_second then invalid_arg "Statevector.apply_exchange: duplicate qubit";
  let s = if fault_exchange_phase then -.s else s in
  let re = t.re and im = t.im in
  let hi_m = 1 lsl q_first and lo_m = 1 lsl q_second in
  let p = if q_first < q_second then q_first else q_second in
  let r = if q_first < q_second then q_second else q_first in
  let run = 1 lsl p and mid = (1 lsl (r - 1 - p)) - 1 in
  let bh = ref 0 in
  for _ = 0 to (dim t lsr (r + 1)) - 1 do
    let bm = ref !bh in
    for _ = 0 to mid do
      let b = !bm in
      for i00 = b to b + run - 1 do
        let i01 = i00 lor lo_m in
        let i10 = i00 lor hi_m in
        let a1r = A.unsafe_get re i01 and a1i = A.unsafe_get im i01 in
        let a2r = A.unsafe_get re i10 and a2i = A.unsafe_get im i10 in
        A.unsafe_set re i01 ((c *. a1r) +. (s *. a2i));
        A.unsafe_set im i01 ((c *. a1i) -. (s *. a2r));
        A.unsafe_set re i10 ((s *. a1i) +. (c *. a2r));
        A.unsafe_set im i10 ((c *. a2i) -. (s *. a1r))
      done;
      bm := b + (run lsl 1)
    done;
    bh := !bh + (1 lsl (r + 1))
  done

let apply_matrix1 t m q =
  if Matrix.rows m <> 2 || Matrix.cols m <> 2 then
    invalid_arg "Statevector.apply_matrix1: expected 2x2";
  apply_entries1 t (entries1 m) q

let apply_matrix2 t m q_first q_second =
  if Matrix.rows m <> 4 || Matrix.cols m <> 4 then
    invalid_arg "Statevector.apply_matrix2: expected 4x4";
  apply_entries2 t (entries2 m) q_first q_second

let apply t gate qubits =
  match (Gate.arity gate, qubits) with
  | 1, [ q ] -> apply_matrix1 t (Gate.unitary gate) q
  | 2, [ a; b ] -> apply_matrix2 t (Gate.unitary gate) a b
  | _ ->
    invalid_arg
      (Printf.sprintf "Statevector.apply: %s applied to %d operand(s)" (Gate.name gate)
         (List.length qubits))

let run t circuit =
  if Circuit.n_qubits circuit <> t.n then invalid_arg "Statevector.run: qubit count mismatch";
  Array.iter
    (fun app -> apply t app.Gate.gate (Array.to_list app.Gate.qubits))
    (Circuit.instructions circuit)

let of_circuit circuit =
  let t = create (Circuit.n_qubits circuit) in
  run t circuit;
  t

let probability t k = (t.re.{k} *. t.re.{k}) +. (t.im.{k} *. t.im.{k})

let probabilities t = Array.init (dim t) (fun k -> probability t k)

let fidelity a b =
  if a.n <> b.n then invalid_arg "Statevector.fidelity: qubit count mismatch";
  let or_ = ref 0.0 and oi = ref 0.0 in
  for k = 0 to dim a - 1 do
    (* conj(a_k) * b_k *)
    let ar = a.re.{k} and ai = -.a.im.{k} in
    let br = b.re.{k} and bi = b.im.{k} in
    or_ := !or_ +. ((ar *. br) -. (ai *. bi));
    oi := !oi +. ((ar *. bi) +. (ai *. br))
  done;
  (!or_ *. !or_) +. (!oi *. !oi)

let norm t =
  let acc = ref 0.0 in
  for k = 0 to dim t - 1 do
    acc := !acc +. ((t.re.{k} *. t.re.{k}) +. (t.im.{k} *. t.im.{k}))
  done;
  sqrt !acc

let normalize t =
  let n = norm t in
  if n > 0.0 then begin
    let s = 1.0 /. n in
    for k = 0 to dim t - 1 do
      t.re.{k} <- s *. t.re.{k};
      t.im.{k} <- s *. t.im.{k}
    done
  end

let measure rng t =
  let u = Rng.float rng in
  let d = dim t in
  let acc = ref 0.0 and result = ref (d - 1) and k = ref 0 in
  while !k < d do
    acc := !acc +. probability t !k;
    if !acc >= u then begin
      result := !k;
      k := d
    end
    else incr k
  done;
  !result
