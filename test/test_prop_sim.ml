(* Differential properties for the flat-float simulation kernels: the
   unboxed Statevector must agree with the boxed Statevector_ref oracle on
   random full-gate-set circuits, the density-matrix evolution must agree
   with a noise-free trajectory, the lowered trajectory plan must agree with
   the per-event interpreter it replaced, and the parallel Monte-Carlo mean
   must be bit-identical at any job count. *)
open Helpers

let circuits = Proptest.circuit ~max_qubits:5 ~max_gates:25 ()

let prop_flat_matches_boxed =
  prop_case "flat kernels match boxed reference on random circuits" circuits (fun c ->
      let flat = Statevector.amplitudes (Statevector.of_circuit c) in
      let boxed = Statevector_ref.amplitudes (Statevector_ref.of_circuit c) in
      let worst = ref 0.0 in
      Array.iteri
        (fun k a -> worst := Float.max !worst (Complex.norm (Complex.sub a boxed.(k))))
        flat;
      !worst <= 1e-9)

(* Bitwise plane comparison, down to the last ulp and the sign of zero. *)
let planes_bit_identical a b =
  let are, aim = Statevector.buffers a and bre, bim = Statevector.buffers b in
  let ok = ref true in
  for k = 0 to Bigarray.Array1.dim are - 1 do
    if
      Int64.bits_of_float are.{k} <> Int64.bits_of_float bre.{k}
      || Int64.bits_of_float aim.{k} <> Int64.bits_of_float bim.{k}
    then ok := false
  done;
  !ok

(* The run-structured kernels that the nested-block walk replaced, kept
   verbatim as the bit-level oracle: each computes the bit scatter once per
   run of low counter bits.  Only their frames differ from the originals —
   planes come from [Statevector.buffers], the body walks the whole counter
   range, and argument checks and seeded faults are gone, so the oracle
   stays correct under any FASTSC_FAULT. *)
module Run_structured = struct
  module A = Bigarray.Array1

  let apply_entries1 t e q =
    let m00r = e.(0) and m00i = e.(1) and m01r = e.(2) and m01i = e.(3) in
    let m10r = e.(4) and m10i = e.(5) and m11r = e.(6) and m11i = e.(7) in
    let re, im = Statevector.buffers t in
    let mask = 1 lsl q in
    let low = mask - 1 in
    let d = A.dim re in
    let pairs = d lsr 1 in
    let shift = q + 1 in
    let body lo hi =
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
    body 0 pairs

  let apply_entries2 t e q_first q_second =
    let m00r = e.(0) and m00i = e.(1) and m01r = e.(2) and m01i = e.(3) in
    let m02r = e.(4) and m02i = e.(5) and m03r = e.(6) and m03i = e.(7) in
    let m10r = e.(8) and m10i = e.(9) and m11r = e.(10) and m11i = e.(11) in
    let m12r = e.(12) and m12i = e.(13) and m13r = e.(14) and m13i = e.(15) in
    let m20r = e.(16) and m20i = e.(17) and m21r = e.(18) and m21i = e.(19) in
    let m22r = e.(20) and m22i = e.(21) and m23r = e.(22) and m23i = e.(23) in
    let m30r = e.(24) and m30i = e.(25) and m31r = e.(26) and m31i = e.(27) in
    let m32r = e.(28) and m32i = e.(29) and m33r = e.(30) and m33i = e.(31) in
    let re, im = Statevector.buffers t in
    let hi_m, lo_m = (1 lsl q_first, 1 lsl q_second) in
    let p = min q_first q_second and r = max q_first q_second in
    let lowp = (1 lsl p) - 1 and lowr = (1 lsl r) - 1 in
    let d = A.dim re in
    let quarters = d lsr 2 in
    let body lo hi =
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
    body 0 quarters

  let apply_exchange t ~c ~s q_first q_second =
    let re, im = Statevector.buffers t in
    let hi_m = 1 lsl q_first and lo_m = 1 lsl q_second in
    let p = min q_first q_second and r = max q_first q_second in
    let lowp = (1 lsl p) - 1 and lowr = (1 lsl r) - 1 in
    let quarters = A.dim re lsr 2 in
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
end

(* A random normalized state on [n] qubits and random kernel operands: the
   entries are not unitary, so every product and sum of the kernels moves
   real bits. *)
let random_state rng n =
  let sv =
    Statevector.of_amplitudes
      (Array.init (1 lsl n) (fun _ ->
           { Complex.re = Rng.uniform rng (-1.0) 1.0; im = Rng.uniform rng (-1.0) 1.0 }))
  in
  Statevector.normalize sv;
  sv

let prop_nested_walk_matches_run_structured =
  prop_case "nested-block kernels match the run-structured ones bit for bit"
    (Proptest.pair (Proptest.int_range 1 10) (Proptest.int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let state = random_state rng n in
      let e1 = Array.init 8 (fun _ -> Rng.uniform rng (-1.0) 1.0) in
      let e2 = Array.init 32 (fun _ -> Rng.uniform rng (-1.0) 1.0) in
      let theta = Rng.uniform rng (-.Float.pi) Float.pi in
      let c = cos theta and s = sin theta in
      let same kernel oracle =
        let got = Statevector.copy state and want = Statevector.copy state in
        kernel got;
        oracle want;
        planes_bit_identical got want
      in
      let qubits = List.init n Fun.id in
      List.for_all
        (fun q ->
          same
            (fun sv -> Statevector.apply_entries1 sv e1 q)
            (fun sv -> Run_structured.apply_entries1 sv e1 q))
        qubits
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 a = b
                 || same
                      (fun sv -> Statevector.apply_exchange sv ~c ~s a b)
                      (fun sv -> Run_structured.apply_exchange sv ~c ~s a b)
                    && same
                         (fun sv -> Statevector.apply_entries2 sv e2 a b)
                         (fun sv -> Run_structured.apply_entries2 sv e2 a b))
               qubits)
           qubits)

(* Mixing angles for crosstalk exchanges: the identity, the full iSWAP, a
   near-identity angle and random signed values. *)
let random_theta rng =
  match Rng.int rng 5 with
  | 0 -> 0.0
  | 1 -> Float.pi /. 2.0
  | 2 -> 1e-9
  | _ -> Rng.uniform rng (-.Float.pi) Float.pi

let random_exchange rng n =
  let a = Rng.int rng n in
  let b = (a + 1 + Rng.int rng (n - 1)) mod n in
  Noisy_sim.Partial_exchange { a; b; theta = random_theta rng }

(* Lower a circuit to noise-free steps (one gate per step), each gate
   followed by a random partial exchange half of the time on registers of
   two or more qubits. *)
let steps_of_circuit ~seed c =
  let rng = Rng.create seed in
  let n = Circuit.n_qubits c in
  Array.to_list
    (Array.map
       (fun app ->
         let gate = Noisy_sim.Unitary (app.Gate.gate, Array.to_list app.Gate.qubits) in
         if n >= 2 && Rng.bool rng then [ gate; random_exchange rng n ] else [ gate ])
       (Circuit.instructions c))

let prop_density_matches_trajectory =
  prop_case ~count:60 "density evolution matches statevector on noise-free steps"
    (Proptest.pair circuits (Proptest.int_range 0 1_000_000))
    (fun (c, seed) ->
      let n_qubits = Circuit.n_qubits c in
      let steps = steps_of_circuit ~seed c in
      (* Density applies the dense exchange matrix, the trajectory the
         two-amplitude kernel. *)
      let rho = Density.run_steps ~n_qubits steps in
      (* No noise events: one trajectory is exact and rng-independent. *)
      let psi = Noisy_sim.run_trajectory (Rng.create 0) ~n_qubits steps in
      Float.abs (Density.purity rho -. 1.0) <= 1e-9
      && Float.abs (Density.fidelity_pure rho psi -. 1.0) <= 1e-9)

(* The per-event interpreter that the lowered plan replaced, kept as its
   oracle: every event rebuilds its boxed matrix and runs the dense kernels,
   exchanges included. *)
module Oracle = struct
  let apply_event rng state = function
    | Noisy_sim.Unitary (gate, qubits) -> Statevector.apply state gate qubits
    | Noisy_sim.Partial_exchange { a; b; theta } ->
      Statevector.apply_matrix2 state (Noisy_sim.exchange_unitary theta) a b
    | Noisy_sim.Pauli_noise { q; p_x; p_y; p_z } ->
      let u = Rng.float rng in
      if u < p_x then Statevector.apply state Gate.X [ q ]
      else if u < p_x +. p_y then Statevector.apply state Gate.Y [ q ]
      else if u < p_x +. p_y +. p_z then Statevector.apply state Gate.Z [ q ]

  let run_trajectory rng ~n_qubits steps =
    let state = Statevector.create n_qubits in
    List.iter (fun step -> List.iter (apply_event rng state) step) steps;
    state

  let average_fidelity rng ~n_qubits ~ideal ~steps ~trials =
    let total = ref 0.0 in
    Array.iter
      (fun trial_rng ->
        total := !total +. Statevector.fidelity ideal (run_trajectory trial_rng ~n_qubits steps))
      (Rng.split_n rng trials);
    !total /. float_of_int trials
end

(* A noisy program on 2-6 qubits: a random full-gate-set circuit with
   crosstalk exchanges, Pauli channels and extra two-qubit gates
   interleaved, cut into steps of one to four events, plus the seed its
   trajectories draw from.  A per-case regime sets the channels, so batches
   range from every trial hit at the first instruction (a certain channel
   leads the program) through many trials sharing one first hit (certain
   channels among random ones) and mostly clean trials (rare channels) to
   no trial hit at all (silent channels only).  The extra gates cover every
   4x4 form the plan lowers: Cz (diagonal), Iswap, Sqrt_iswap and Xy
   (exchange form), Cnot (dense), and [Xy 0.0], the identity, which is
   both diagonal and of exchange form. *)
type noisy_case = { n : int; seed : int; steps : Noisy_sim.step list }

let noisy_case_gen rng =
  let c = circuits.Proptest.gen rng in
  let n = max (Circuit.n_qubits c) (2 + Rng.int rng 5) in
  let regime = Rng.int rng 4 in
  let certain q =
    let p_x, p_y, p_z =
      Rng.choose rng [| (1.0, 0.0, 0.0); (0.0, 1.0, 0.0); (0.0, 0.0, 1.0); (0.5, 0.25, 0.25) |]
    in
    Noisy_sim.Pauli_noise { q; p_x; p_y; p_z }
  in
  let pauli () =
    let q = Rng.int rng n in
    let p hi = Rng.uniform rng 0.0 hi in
    match (regime, Rng.int rng 8) with
    | 3, _ | _, 0 -> Noisy_sim.Pauli_noise { q; p_x = 0.0; p_y = 0.0; p_z = 0.0 }
    | _, 1 -> certain q
    | 2, _ ->
      let p_x = p 0.01 in
      let p_y = p 0.01 in
      Noisy_sim.Pauli_noise { q; p_x; p_y; p_z = p 0.01 }
    | _ ->
      let p_x = p 0.3 in
      let p_y = p 0.3 in
      Noisy_sim.Pauli_noise { q; p_x; p_y; p_z = p 0.3 }
  in
  let two_qubit_gate () =
    let a = Rng.int rng n in
    let b = (a + 1 + Rng.int rng (n - 1)) mod n in
    let theta = Rng.uniform rng (-.Float.pi) Float.pi in
    let gate =
      Rng.choose rng
        [| Gate.Cz; Gate.Iswap; Gate.Sqrt_iswap; Gate.Xy theta; Gate.Xy 0.0; Gate.Cnot |]
    in
    Noisy_sim.Unitary (gate, [ a; b ])
  in
  let noise () =
    List.init (Rng.int rng 3) (fun _ ->
        match Rng.int rng 5 with
        | 0 | 1 -> random_exchange rng n
        | 2 | 3 -> pauli ()
        | _ -> two_qubit_gate ())
  in
  let lead = if regime < 3 && Rng.int rng 4 = 0 then [ certain (Rng.int rng n) ] else [] in
  let events =
    lead
    @ noise ()
    @ List.concat_map
        (fun app -> Noisy_sim.Unitary (app.Gate.gate, Array.to_list app.Gate.qubits) :: noise ())
        (Array.to_list (Circuit.instructions c))
  in
  let rec cut = function
    | [] -> []
    | events ->
      let k = 1 + Rng.int rng 4 in
      List.filteri (fun i _ -> i < k) events :: cut (List.filteri (fun i _ -> i >= k) events)
  in
  let steps = cut events in
  { n; seed = Rng.int rng 1_000_000; steps }

let print_event = function
  | Noisy_sim.Unitary (gate, qubits) ->
    Printf.sprintf "%s %s" (Gate.name gate) (String.concat "," (List.map string_of_int qubits))
  | Noisy_sim.Partial_exchange { a; b; theta } -> Printf.sprintf "exchange(%h) %d,%d" theta a b
  | Noisy_sim.Pauli_noise { q; p_x; p_y; p_z } ->
    Printf.sprintf "pauli(%g,%g,%g) %d" p_x p_y p_z q

let noisy_cases =
  Proptest.make noisy_case_gen
    ~shrink:(fun c -> Seq.map (fun steps -> { c with steps }) (Proptest.Shrink.list c.steps))
    ~print:(fun c ->
      Printf.sprintf "%d qubits, seed %d: [%s]" c.n c.seed
        (String.concat " | " (List.map (fun s -> String.concat "; " (List.map print_event s)) c.steps)))
    ~size:(fun c -> c.n + List.length (List.concat c.steps))

(* Float [=] plane by plane: values must match exactly; +0 and -0 compare
   equal, the one difference the two-amplitude kernel may introduce. *)
let same_amplitudes a b =
  let are, aim = Statevector.buffers a and bre, bim = Statevector.buffers b in
  let ok = ref true in
  for k = 0 to Bigarray.Array1.dim are - 1 do
    if are.{k} <> bre.{k} || aim.{k} <> bim.{k} then ok := false
  done;
  !ok

let prop_trajectory_matches_oracle =
  prop_case ~count:300 "trajectory plan matches the per-event interpreter" noisy_cases
    (fun { n; seed; steps } ->
      let rng = Rng.create seed and oracle_rng = Rng.create seed in
      let got = Noisy_sim.run_trajectory rng ~n_qubits:n steps in
      let want = Oracle.run_trajectory oracle_rng ~n_qubits:n steps in
      same_amplitudes got want && Int64.equal (Rng.int64 rng) (Rng.int64 oracle_rng))

(* [average_fidelity] against the oracle at jobs 1-4: the mean bit for bit,
   and the caller's final rng state. *)
let matches_oracle { n; seed; steps } ~trials =
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:n steps in
  let oracle_rng = Rng.create seed in
  let want = Oracle.average_fidelity oracle_rng ~n_qubits:n ~ideal ~steps ~trials in
  let want_rng = Rng.int64 oracle_rng in
  List.for_all
    (fun jobs ->
      with_jobs jobs (fun () ->
          let rng = Rng.create seed in
          let got = Noisy_sim.average_fidelity rng ~n_qubits:n ~ideal ~steps ~trials in
          Int64.bits_of_float got = Int64.bits_of_float want
          && Int64.equal (Rng.int64 rng) want_rng))
    [ 1; 2; 3; 4 ]

let prop_average_fidelity_matches_oracle =
  prop_case ~count:60 "average_fidelity matches the per-event interpreter bit for bit"
    noisy_cases (fun case -> matches_oracle case ~trials:(1 + (case.seed mod 16)))

(* Fixed batches at the edges of the shared prefix: every trial hit at the
   first instruction, every trial hit at one later position, no trial hit,
   and a single trial, each on a program holding every 4x4 form. *)
let test_average_fidelity_edge_batches () =
  let pauli q (p_x, p_y, p_z) = Noisy_sim.Pauli_noise { q; p_x; p_y; p_z } in
  let gates =
    List.map
      (fun (g, qs) -> Noisy_sim.Unitary (g, qs))
      [
        (Gate.H, [ 0 ]); (Gate.Sx, [ 2 ]); (Gate.Cz, [ 0; 1 ]); (Gate.Iswap, [ 2; 0 ]);
        (Gate.Sqrt_iswap, [ 1; 2 ]); (Gate.Xy 0.7, [ 0; 2 ]); (Gate.Xy 0.0, [ 2; 1 ]);
        (Gate.Cnot, [ 1; 0 ]); (Gate.Swap, [ 0; 2 ]);
      ]
  in
  let exchange = Noisy_sim.Partial_exchange { a = 1; b = 2; theta = 0.3 } in
  let silent q = pauli q (0.0, 0.0, 0.0) and noisy q = pauli q (0.1, 0.05, 0.15) in
  let cases =
    [
      ("hit at the first instruction", [ [ pauli 1 (0.0, 1.0, 0.0) ]; gates; [ noisy 0; exchange ] ]);
      ("one shared later hit", [ gates; [ silent 0; pauli 2 (0.5, 0.25, 0.25) ]; gates; [ noisy 1 ] ]);
      ("no trial hit", [ [ silent 0 ]; gates; [ exchange; silent 1; silent 2 ]; gates ]);
      ("mixed", [ gates; [ noisy 0; noisy 1 ]; gates; [ exchange; noisy 2 ] ]);
    ]
  in
  List.iter
    (fun (name, steps) ->
      List.iter
        (fun trials ->
          check_true
            (Printf.sprintf "%s, %d trial(s)" name trials)
            (matches_oracle { n = 3; seed = 17; steps } ~trials))
        [ 1; 2; 16 ])
    cases

let noisy_steps =
  [
    [ Noisy_sim.Unitary (Gate.H, [ 0 ]); Noisy_sim.Unitary (Gate.Cz, [ 0; 1 ]) ];
    [
      Noisy_sim.Partial_exchange { a = 1; b = 2; theta = 0.2 };
      Noisy_sim.Pauli_noise { q = 0; p_x = 0.05; p_y = 0.03; p_z = 0.02 };
    ];
    [
      Noisy_sim.Unitary (Gate.Sx, [ 2 ]);
      Noisy_sim.Pauli_noise { q = 1; p_x = 0.02; p_y = 0.02; p_z = 0.08 };
      Noisy_sim.Pauli_noise { q = 2; p_x = 0.04; p_y = 0.01; p_z = 0.03 };
    ];
  ]

let test_average_fidelity_jobs_invariant () =
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:3 noisy_steps in
  let mean_at jobs =
    with_jobs jobs (fun () ->
        let rng = Rng.create 42 in
        let mean =
          Noisy_sim.average_fidelity rng ~n_qubits:3 ~ideal ~steps:noisy_steps ~trials:40
        in
        (* The caller's generator must also end in the same state. *)
        (mean, Rng.int64 rng))
  in
  let serial, state1 = mean_at 1 in
  let parallel, state4 = mean_at 4 in
  check_true "mean bit-identical at jobs=1 and jobs=4"
    (Int64.bits_of_float serial = Int64.bits_of_float parallel);
  check_true "caller rng advanced identically" (Int64.equal state1 state4);
  check_true "mean is a fidelity" (serial >= 0.0 && serial <= 1.0 +. 1e-9)

let test_average_fidelity_rejects_zero_trials () =
  let ideal = Noisy_sim.ideal_of_steps ~n_qubits:3 noisy_steps in
  Alcotest.check_raises "trials must be positive"
    (Invalid_argument "Noisy_sim.average_fidelity: trials must be positive") (fun () ->
      ignore
        (Noisy_sim.average_fidelity (Rng.create 1) ~n_qubits:3 ~ideal ~steps:noisy_steps ~trials:0))

let suite =
  [
    prop_flat_matches_boxed;
    prop_nested_walk_matches_run_structured;
    prop_density_matches_trajectory;
    prop_trajectory_matches_oracle;
    prop_average_fidelity_matches_oracle;
    Alcotest.test_case "average_fidelity edge batches" `Quick test_average_fidelity_edge_batches;
    Alcotest.test_case "average_fidelity jobs invariance" `Quick
      test_average_fidelity_jobs_invariant;
    Alcotest.test_case "average_fidelity zero trials" `Quick
      test_average_fidelity_rejects_zero_trials;
  ]
