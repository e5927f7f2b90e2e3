(* Amplitudes live in two Bigarray float64 planes (split re/im).  Bigarrays
   sit outside the OCaml heap, so domains share one state zero-copy: a single
   gate application can be sharded across the pool by amplitude range with no
   marshalling and no GC traffic.  The kernels below are allocation-free
   loops over scalar floats with the 2x2 / 4x4 gate entries hoisted out of
   the loop, and they walk the state run-structured: instead of re-scattering
   the counter around the operand bit(s) at every index, each maximal run of
   low counter bits becomes one contiguous inner loop — cache-friendly tiles
   at high qubit counts, identical arithmetic per amplitude pair.  The boxed
   implementation survives as Statevector_ref, the reference the differential
   suite checks this module against. *)

module A = Bigarray.Array1

type plane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { n : int; re : plane; im : plane }

(* Seeded faults for the verification harness (docs/DESIGN.md §11); resolved
   once at module initialisation, so the kernels pay one load per call,
   never per index. *)
let fault_scatter = Fault.enabled "sim-scatter-off-by-one"

let fault_operand_swap = Fault.enabled "sim-operand-swap"

let fault_exchange_phase = Fault.enabled "sim-exchange-phase"

(* Shard boundaries are aligned to this many counter values, so a shard cut
   never lands inside a kernel's contiguous inner run for operand bits below
   log2(kernel_block).  Alignment is a performance choice only — each
   amplitude pair is updated independently, so results are bit-identical at
   any shard count regardless (docs/DESIGN.md §14). *)
let kernel_block = 256

(* Below this state size a gate application is too small to amortize the
   pool handoff; the auto path stays serial and only across-trajectory
   parallelism applies. *)
let auto_shard_dim = 1 lsl 16

(* [shard ~jobs ~dim n body] runs [body lo hi] over a partition of [0, n).
   An explicit [~jobs] forces that shard count even on tiny states (the
   bit-identity tests need real shards at 5 qubits, hence the unaligned cut
   when the state is too small to give every shard a full block); the
   default path shards only when the state is large and the process-wide
   default asks for parallelism. *)
let shard ~jobs ~dim n body =
  let cut j = Pool.run_ranges ~jobs:j ~align:(if n >= j * kernel_block then kernel_block else 1) n body in
  match jobs with
  | Some 1 -> body 0 n
  | Some j -> cut j
  | None ->
    let j = Pool.default_jobs () in
    if j > 1 && dim >= auto_shard_dim then cut j else body 0 n

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

let buffers t = (t.re, t.im)

let amplitudes t = Array.init (dim t) (fun k -> { Complex.re = t.re.{k}; im = t.im.{k} })

let amplitude t k = { Complex.re = t.re.{k}; im = t.im.{k} }

let check_qubit t q =
  if q < 0 || q >= t.n then invalid_arg (Printf.sprintf "Statevector: qubit %d out of range" q)

(* --- gate entries in kernel form --- *)

(* The kernels consume gate matrices as interleaved [|re; im; ...|] rows, so
   a fused program can pre-extract every matrix once and replay it without
   touching boxed [Complex.t] again. *)

let entries1 m =
  if Matrix.rows m <> 2 || Matrix.cols m <> 2 then
    invalid_arg "Statevector.entries1: expected 2x2";
  Fmatrix.interleaved (Fmatrix.of_matrix m)

let entries2 m =
  if Matrix.rows m <> 4 || Matrix.cols m <> 4 then
    invalid_arg "Statevector.entries2: expected 4x4";
  Fmatrix.interleaved (Fmatrix.of_matrix m)

(* --- kernels --- *)

let apply_entries1 ?jobs t e q =
  if Array.length e <> 8 then invalid_arg "Statevector.apply_entries1: expected 8 entries";
  check_qubit t q;
  let m00r = e.(0) and m00i = e.(1) and m01r = e.(2) and m01i = e.(3) in
  let m10r = e.(4) and m10i = e.(5) and m11r = e.(6) and m11i = e.(7) in
  let re = t.re and im = t.im in
  let mask = 1 lsl q in
  let low = mask - 1 in
  let d = dim t in
  let pairs = d lsr 1 in
  let shift = if fault_scatter then q else q + 1 in
  let body lo hi =
    (* Run-structured walk: for all counter values sharing their high bits,
       the scattered index increments by exactly 1, so the scatter is
       computed once per run and the inner loop is contiguous. *)
    let k = ref lo in
    while !k < hi do
      let k0 = !k in
      let base = ((k0 lsr q) lsl shift) lor (k0 land low) in
      let run_end = min hi ((k0 lor low) + 1) in
      let len = run_end - k0 in
      for j = 0 to len - 1 do
        let i0 = base + j in
        let i1 = i0 lor mask in
        let a0r = A.unsafe_get re i0 and a0i = A.unsafe_get im i0 in
        let a1r = A.unsafe_get re i1 and a1i = A.unsafe_get im i1 in
        A.unsafe_set re i0 ((m00r *. a0r) -. (m00i *. a0i) +. ((m01r *. a1r) -. (m01i *. a1i)));
        A.unsafe_set im i0 ((m00r *. a0i) +. (m00i *. a0r) +. ((m01r *. a1i) +. (m01i *. a1r)));
        A.unsafe_set re i1 ((m10r *. a0r) -. (m10i *. a0i) +. ((m11r *. a1r) -. (m11i *. a1i)));
        A.unsafe_set im i1 ((m10r *. a0i) +. (m10i *. a0r) +. ((m11r *. a1i) +. (m11i *. a1r)))
      done;
      k := run_end
    done
  in
  shard ~jobs ~dim:d pairs body

let apply_entries2 ?jobs t e q_first q_second =
  if Array.length e <> 32 then invalid_arg "Statevector.apply_entries2: expected 32 entries";
  check_qubit t q_first;
  check_qubit t q_second;
  if q_first = q_second then invalid_arg "Statevector.apply_matrix2: duplicate qubit";
  (* Hoist the 32 scalar entries of the 4x4 gate out of the loop. *)
  let m00r = e.(0) and m00i = e.(1) and m01r = e.(2) and m01i = e.(3) in
  let m02r = e.(4) and m02i = e.(5) and m03r = e.(6) and m03i = e.(7) in
  let m10r = e.(8) and m10i = e.(9) and m11r = e.(10) and m11i = e.(11) in
  let m12r = e.(12) and m12i = e.(13) and m13r = e.(14) and m13i = e.(15) in
  let m20r = e.(16) and m20i = e.(17) and m21r = e.(18) and m21i = e.(19) in
  let m22r = e.(20) and m22i = e.(21) and m23r = e.(22) and m23i = e.(23) in
  let m30r = e.(24) and m30i = e.(25) and m31r = e.(26) and m31i = e.(27) in
  let m32r = e.(28) and m32i = e.(29) and m33r = e.(30) and m33i = e.(31) in
  let re = t.re and im = t.im in
  let hi_m, lo_m =
    if fault_operand_swap then (1 lsl q_second, 1 lsl q_first)
    else (1 lsl q_first, 1 lsl q_second)
  in
  (* Enumerate the indices with both operand bits clear by scattering the
     counter around the two bit positions (lowest position first). *)
  let p = min q_first q_second and r = max q_first q_second in
  let lowp = (1 lsl p) - 1 and lowr = (1 lsl r) - 1 in
  let d = dim t in
  let quarters = d lsr 2 in
  let body lo hi =
    (* Same run structure as the 1q kernel: within a run of the low [p]
       counter bits all four scattered indices increment by 1, giving four
       contiguous streams per run. *)
    let k = ref lo in
    while !k < hi do
      let k0 = !k in
      let s = ((k0 lsr p) lsl (p + 1)) lor (k0 land lowp) in
      let base = ((s lsr r) lsl (r + 1)) lor (s land lowr) in
      let run_end = min hi ((k0 lor lowp) + 1) in
      let len = run_end - k0 in
      for j = 0 to len - 1 do
        let i00 = base + j in
        let i01 = i00 lor lo_m in
        let i10 = i00 lor hi_m in
        let i11 = i00 lor hi_m lor lo_m in
        let a0r = A.unsafe_get re i00 and a0i = A.unsafe_get im i00 in
        let a1r = A.unsafe_get re i01 and a1i = A.unsafe_get im i01 in
        let a2r = A.unsafe_get re i10 and a2i = A.unsafe_get im i10 in
        let a3r = A.unsafe_get re i11 and a3i = A.unsafe_get im i11 in
        A.unsafe_set re i00
          ((m00r *. a0r) -. (m00i *. a0i)
          +. ((m01r *. a1r) -. (m01i *. a1i))
          +. ((m02r *. a2r) -. (m02i *. a2i))
          +. ((m03r *. a3r) -. (m03i *. a3i)));
        A.unsafe_set im i00
          ((m00r *. a0i) +. (m00i *. a0r)
          +. ((m01r *. a1i) +. (m01i *. a1r))
          +. ((m02r *. a2i) +. (m02i *. a2r))
          +. ((m03r *. a3i) +. (m03i *. a3r)));
        A.unsafe_set re i01
          ((m10r *. a0r) -. (m10i *. a0i)
          +. ((m11r *. a1r) -. (m11i *. a1i))
          +. ((m12r *. a2r) -. (m12i *. a2i))
          +. ((m13r *. a3r) -. (m13i *. a3i)));
        A.unsafe_set im i01
          ((m10r *. a0i) +. (m10i *. a0r)
          +. ((m11r *. a1i) +. (m11i *. a1r))
          +. ((m12r *. a2i) +. (m12i *. a2r))
          +. ((m13r *. a3i) +. (m13i *. a3r)));
        A.unsafe_set re i10
          ((m20r *. a0r) -. (m20i *. a0i)
          +. ((m21r *. a1r) -. (m21i *. a1i))
          +. ((m22r *. a2r) -. (m22i *. a2i))
          +. ((m23r *. a3r) -. (m23i *. a3i)));
        A.unsafe_set im i10
          ((m20r *. a0i) +. (m20i *. a0r)
          +. ((m21r *. a1i) +. (m21i *. a1r))
          +. ((m22r *. a2i) +. (m22i *. a2r))
          +. ((m23r *. a3i) +. (m23i *. a3r)));
        A.unsafe_set re i11
          ((m30r *. a0r) -. (m30i *. a0i)
          +. ((m31r *. a1r) -. (m31i *. a1i))
          +. ((m32r *. a2r) -. (m32i *. a2i))
          +. ((m33r *. a3r) -. (m33i *. a3i)));
        A.unsafe_set im i11
          ((m30r *. a0i) +. (m30i *. a0r)
          +. ((m31r *. a1i) +. (m31i *. a1r))
          +. ((m32r *. a2i) +. (m32i *. a2r))
          +. ((m33r *. a3i) +. (m33i *. a3r)))
      done;
      k := run_end
    done
  in
  shard ~jobs ~dim:d quarters body

(* The partial exchange [[1,0,0,0],[0,c,-is,0],[0,-is,c,0],[0,0,0,1]] through
   the same quartet walk as [apply_entries2], touching only the |01>,|10>
   pair.  Every product the dense kernel would add on top of these four
   expressions has a zero matrix entry, so it is an exact ±0: the results
   equal [apply_entries2 (entries2 (exchange_unitary theta))] as floats, and
   only the sign of a zero amplitude can differ. *)
let apply_exchange t ~c ~s q_first q_second =
  check_qubit t q_first;
  check_qubit t q_second;
  if q_first = q_second then invalid_arg "Statevector.apply_exchange: duplicate qubit";
  let s = if fault_exchange_phase then -.s else s in
  let re = t.re and im = t.im in
  let hi_m = 1 lsl q_first and lo_m = 1 lsl q_second in
  let p = min q_first q_second and r = max q_first q_second in
  let lowp = (1 lsl p) - 1 and lowr = (1 lsl r) - 1 in
  let quarters = dim t lsr 2 in
  let k = ref 0 in
  while !k < quarters do
    let k0 = !k in
    let s0 = ((k0 lsr p) lsl (p + 1)) lor (k0 land lowp) in
    let base = ((s0 lsr r) lsl (r + 1)) lor (s0 land lowr) in
    let run_end = min quarters ((k0 lor lowp) + 1) in
    for j = 0 to run_end - k0 - 1 do
      let i00 = base + j in
      let i01 = i00 lor lo_m in
      let i10 = i00 lor hi_m in
      let a1r = A.unsafe_get re i01 and a1i = A.unsafe_get im i01 in
      let a2r = A.unsafe_get re i10 and a2i = A.unsafe_get im i10 in
      A.unsafe_set re i01 ((c *. a1r) +. (s *. a2i));
      A.unsafe_set im i01 ((c *. a1i) -. (s *. a2r));
      A.unsafe_set re i10 ((s *. a1i) +. (c *. a2r));
      A.unsafe_set im i10 ((c *. a2i) -. (s *. a1r))
    done;
    k := run_end
  done

let apply_matrix1 ?jobs t m q =
  if Matrix.rows m <> 2 || Matrix.cols m <> 2 then
    invalid_arg "Statevector.apply_matrix1: expected 2x2";
  apply_entries1 ?jobs t (entries1 m) q

let apply_matrix2 ?jobs t m q_first q_second =
  if Matrix.rows m <> 4 || Matrix.cols m <> 4 then
    invalid_arg "Statevector.apply_matrix2: expected 4x4";
  apply_entries2 ?jobs t (entries2 m) q_first q_second

let apply ?jobs t gate qubits =
  match (Gate.arity gate, qubits) with
  | 1, [ q ] -> apply_matrix1 ?jobs t (Gate.unitary gate) q
  | 2, [ a; b ] -> apply_matrix2 ?jobs t (Gate.unitary gate) a b
  | _ ->
    invalid_arg
      (Printf.sprintf "Statevector.apply: %s applied to %d operand(s)" (Gate.name gate)
         (List.length qubits))

let run ?jobs t circuit =
  if Circuit.n_qubits circuit <> t.n then invalid_arg "Statevector.run: qubit count mismatch";
  Array.iter
    (fun app -> apply ?jobs t app.Gate.gate (Array.to_list app.Gate.qubits))
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
