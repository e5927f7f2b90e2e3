type event =
  | Unitary of Gate.t * int list
  | Partial_exchange of { a : int; b : int; theta : float }
  | Pauli_noise of { q : int; p_x : float; p_y : float; p_z : float }

type step = event list

let exchange_unitary theta =
  let c = cos theta and s = sin theta in
  let z0 = Complex.zero and z1 = Complex.one in
  let cr = { Complex.re = c; im = 0.0 } and msi = { Complex.re = 0.0; im = -.s } in
  Matrix.of_arrays
    [|
      [| z1; z0; z0; z0 |];
      [| z0; cr; msi; z0 |];
      [| z0; msi; cr; z0 |];
      [| z0; z0; z0; z1 |];
    |]

(* A step list lowered once per call into kernel instructions: gate entries
   extracted, exchange angles turned into (cos, sin), Pauli probabilities
   into the cumulative thresholds the draw is compared against.  Every trial
   replays the same array. *)
type instr =
  | Gate1 of float array * int
  | Gate2 of float array * int * int
  | Exchange of { a : int; b : int; c : float; s : float }
  | Pauli of { q : int; x : float; xy : float; xyz : float }

let pauli_x = Statevector.entries1 (Gate.unitary Gate.X)

let pauli_y = Statevector.entries1 (Gate.unitary Gate.Y)

let pauli_z = Statevector.entries1 (Gate.unitary Gate.Z)

let check_qubits ~n_qubits what qubits =
  List.iter
    (fun q ->
      if q < 0 || q >= n_qubits then
        invalid_arg
          (Printf.sprintf "Noisy_sim: %s on qubit %d, out of range for %d qubits" what q n_qubits))
    qubits;
  match qubits with
  | [ a; b ] when a = b ->
    invalid_arg (Printf.sprintf "Noisy_sim: %s on duplicate qubit %d" what a)
  | _ -> ()

let lower_event ~n_qubits = function
  | Unitary (gate, qubits) -> (
    let name = Gate.name gate in
    match (Gate.arity gate, qubits) with
    | 1, [ q ] ->
      check_qubits ~n_qubits name qubits;
      Gate1 (Statevector.entries1 (Gate.unitary gate), q)
    | 2, [ a; b ] ->
      check_qubits ~n_qubits name qubits;
      Gate2 (Statevector.entries2 (Gate.unitary gate), a, b)
    | _ ->
      invalid_arg
        (Printf.sprintf "Noisy_sim: %s applied to %d operand(s)" name (List.length qubits)))
  | Partial_exchange { a; b; theta } ->
    check_qubits ~n_qubits "partial exchange" [ a; b ];
    Exchange { a; b; c = cos theta; s = sin theta }
  | Pauli_noise { q; p_x; p_y; p_z } ->
    check_qubits ~n_qubits "Pauli noise" [ q ];
    Pauli { q; x = p_x; xy = p_x +. p_y; xyz = p_x +. p_y +. p_z }

let lower ~n_qubits steps =
  Array.of_list (List.concat_map (List.map (lower_event ~n_qubits)) steps)

(* Trajectory states are small and trials already fan out across the pool,
   so gate application inside a trial stays serial ([~jobs:1]) — nesting
   amplitude-range shards under trajectory parallelism would only contend
   for the same workers.  One [Rng.float] per Pauli instruction, in order. *)
let replay plan rng state =
  Array.iter
    (function
      | Gate1 (e, q) -> Statevector.apply_entries1 ~jobs:1 state e q
      | Gate2 (e, a, b) -> Statevector.apply_entries2 ~jobs:1 state e a b
      | Exchange { a; b; c; s } -> Statevector.apply_exchange state ~c ~s a b
      | Pauli { q; x; xy; xyz } ->
        let u = Rng.float rng in
        if u < x then Statevector.apply_entries1 ~jobs:1 state pauli_x q
        else if u < xy then Statevector.apply_entries1 ~jobs:1 state pauli_y q
        else if u < xyz then Statevector.apply_entries1 ~jobs:1 state pauli_z q)
    plan

let run_trajectory rng ~n_qubits steps =
  let plan = lower ~n_qubits steps in
  let state = Statevector.create n_qubits in
  replay plan rng state;
  state

let ideal_of_steps ~n_qubits steps =
  let state = Statevector.create n_qubits in
  List.iter
    (fun step ->
      List.iter
        (function
          | Unitary (gate, qubits) -> Statevector.apply state gate qubits
          | Partial_exchange _ | Pauli_noise _ -> ())
        step)
    steps;
  state

(* One reusable trajectory state per domain: a worker allocates its state on
   the first trial it executes and resets it in place for every later one. *)
let trajectory_state = Domain.DLS.new_key (fun () -> ref None)

let average_fidelity rng ~n_qubits ~ideal ~steps ~trials =
  if trials <= 0 then invalid_arg "Noisy_sim.average_fidelity: trials must be positive";
  if Statevector.n_qubits ideal <> n_qubits then
    invalid_arg
      (Printf.sprintf "Noisy_sim.average_fidelity: ideal has %d qubits, expected %d"
         (Statevector.n_qubits ideal) n_qubits);
  let plan = lower ~n_qubits steps in
  (* Each trial gets its own generator, split from the caller's in index
     order before the fan-out.  The trial->stream mapping (and the caller's
     final rng state) is therefore fixed before any scheduling happens, and
     the index-ordered sum below makes the mean bit-identical at any
     [--jobs]. *)
  let seeds = Rng.split_n rng trials in
  let fidelities =
    Pool.map_array
      (fun trial_rng ->
        let cache = Domain.DLS.get trajectory_state in
        let state =
          match !cache with
          | Some (n, st) when n = n_qubits -> st
          | _ ->
            let st = Statevector.create n_qubits in
            cache := Some (n_qubits, st);
            st
        in
        Statevector.reset state;
        replay plan trial_rng state;
        Statevector.fidelity ideal state)
      seeds
  in
  let total = ref 0.0 in
  Array.iter (fun f -> total := !total +. f) fidelities;
  !total /. float_of_int trials
