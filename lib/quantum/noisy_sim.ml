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
  | Diagonal2 of float array * int * int
  | Exchange of { a : int; b : int; c : float; s : float }
  | Pauli of { q : int; x : float; xy : float; xyz : float }

let pauli_x = Statevector.entries1 (Gate.unitary Gate.X)

let pauli_y = Statevector.entries1 (Gate.unitary Gate.Y)

let pauli_z = Statevector.entries1 (Gate.unitary Gate.Z)

(* Seeded fault for the verification harness (DESIGN.md §11). *)
let fault_prefix_resume = Fault.enabled "sim-prefix-resume"

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

(* True when every entry of [e] is an exact zero (either sign) except those
   at the indices in [keep]. *)
let zero_except keep e =
  let ok = ref true in
  Array.iteri (fun k v -> if v <> 0.0 && not (List.mem k keep) then ok := false) e;
  !ok

(* The kernel for a 4x4 in [Statevector.entries2] form is read off the exact
   zeros of its entries, never off the gate's name.  Entry (row, col) has
   its real part at [2 * (4 * row + col)].  The exchange form
   [[1,0,0,0],[0,c,-is,0],[0,-is,c,0],[0,0,0,1]] (Iswap, Sqrt_iswap, Xy)
   takes the two-amplitude kernel; any other diagonal (Cz) the diagonal
   kernel; everything else (Cnot, Swap) the dense one.  The identity has
   both sparse forms and takes the exchange kernel, which touches half the
   amplitudes.  Every product a sparse kernel leaves out has a zero entry,
   so the amplitudes equal the dense kernel's up to the sign of a zero
   (DESIGN.md §9). *)
let lower_gate2 e a b =
  if
    zero_except [ 0; 10; 13; 19; 20; 30 ] e
    && e.(0) = 1.0
    && e.(30) = 1.0
    && e.(10) = e.(20)
    && e.(13) = e.(19)
  then Exchange { a; b; c = e.(10); s = -.e.(13) }
  else if zero_except [ 0; 1; 10; 11; 20; 21; 30; 31 ] e then
    Diagonal2 ([| e.(0); e.(1); e.(10); e.(11); e.(20); e.(21); e.(30); e.(31) |], a, b)
  else Gate2 (e, a, b)

let lower_event ~n_qubits = function
  | Unitary (gate, qubits) -> (
    let name = Gate.name gate in
    match (Gate.arity gate, qubits) with
    | 1, [ q ] ->
      check_qubits ~n_qubits name qubits;
      Gate1 (Statevector.entries1 (Gate.unitary gate), q)
    | 2, [ a; b ] ->
      check_qubits ~n_qubits name qubits;
      lower_gate2 (Statevector.entries2 (Gate.unitary gate)) a b
    | _ ->
      invalid_arg
        (Printf.sprintf "Noisy_sim: %s applied to %d operand(s)" name (List.length qubits)))
  | Partial_exchange { a; b; theta } ->
    check_qubits ~n_qubits "partial exchange" [ a; b ];
    Exchange { a; b; c = cos theta; s = sin theta }
  | Pauli_noise { q; p_x; p_y; p_z } ->
    check_qubits ~n_qubits "Pauli noise" [ q ];
    let xyz = p_x +. p_y +. p_z in
    (* [>=] is false on NaN. *)
    if not (p_x >= 0.0 && p_y >= 0.0 && p_z >= 0.0 && xyz <= 1.0 +. 1e-12) then
      invalid_arg
        (Printf.sprintf
           "Noisy_sim: Pauli noise on qubit %d has probabilities (%g, %g, %g); each must be \
            non-negative and their sum at most 1"
           q p_x p_y p_z);
    Pauli { q; x = p_x; xy = p_x +. p_y; xyz }

let lower ~n_qubits steps =
  Array.of_list (List.concat_map (List.map (lower_event ~n_qubits)) steps)

(* A Pauli instruction never changes the state unless its draw fires;
   [apply_unitary] skips it. *)
let apply_unitary state = function
  | Gate1 (e, q) -> Statevector.apply_entries1 state e q
  | Gate2 (e, a, b) -> Statevector.apply_entries2 state e a b
  | Diagonal2 (d, a, b) -> Statevector.apply_diagonal2 state d a b
  | Exchange { a; b; c; s } -> Statevector.apply_exchange state ~c ~s a b
  | Pauli _ -> ()

(* The Pauli that draw [u] selects on a Pauli instruction, if any. *)
let apply_pauli state u = function
  | Pauli { q; x; xy; xyz } ->
    if u < x then Statevector.apply_entries1 state pauli_x q
    else if u < xy then Statevector.apply_entries1 state pauli_y q
    else if u < xyz then Statevector.apply_entries1 state pauli_z q
  | Gate1 _ | Gate2 _ | Diagonal2 _ | Exchange _ -> ()

(* Replay [plan] from index [from] on: one [Rng.float] per Pauli
   instruction, in order. *)
let replay plan ~from rng state =
  for i = from to Array.length plan - 1 do
    match plan.(i) with
    | Pauli _ as p -> apply_pauli state (Rng.float rng) p
    | ins -> apply_unitary state ins
  done

let run_trajectory rng ~n_qubits steps =
  let plan = lower ~n_qubits steps in
  let state = Statevector.create n_qubits in
  replay plan ~from:0 rng state;
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
   the first trial it executes and overwrites it in place for every later
   one. *)
let trajectory_state = Domain.DLS.new_key (fun () -> ref None)

(* The scan: draw [rng] once per Pauli instruction, as [replay] would, up to
   and including the first that fires.  Returns that instruction's index and
   its draw, or the plan length when none fires. *)
let first_hit plan rng =
  let len = Array.length plan in
  let rec go i =
    if i = len then (len, 0.0)
    else
      match plan.(i) with
      | Pauli { xyz; _ } ->
        let u = Rng.float rng in
        if u < xyz then (i, u) else go (i + 1)
      | Gate1 _ | Gate2 _ | Diagonal2 _ | Exchange _ -> go (i + 1)
  in
  go 0

let average_fidelity rng ~n_qubits ~ideal ~steps ~trials =
  if trials <= 0 then invalid_arg "Noisy_sim.average_fidelity: trials must be positive";
  if Statevector.n_qubits ideal <> n_qubits then
    invalid_arg
      (Printf.sprintf "Noisy_sim.average_fidelity: ideal has %d qubits, expected %d"
         (Statevector.n_qubits ideal) n_qubits);
  let plan = lower ~n_qubits steps in
  let len = Array.length plan in
  (* Each trial gets its own generator, split from the caller's in index
     order before the fan-out.  The trial->stream mapping (and the caller's
     final rng state) is therefore fixed before any scheduling happens, and
     the index-ordered sum below makes the mean bit-identical at any
     [--jobs]. *)
  let seeds = Rng.split_n rng trials in
  let hits = Array.map (first_hit plan) seeds in
  (* The shared prefix: until its first hit a trial applies exactly the
     plan's unitaries, so one error-free replay serves the whole batch.  It
     visits the first-hit positions in increasing order and keeps a copy of
     the state at each distinct one; trials that share a position share the
     copy.  Trials with no hit share the final state, so its fidelity is
     computed once.  All of this is built here, before the fan-out, and
     only read by the pool's domains. *)
  let order = Array.init trials Fun.id in
  Array.stable_sort (fun i j -> Int.compare (fst hits.(i)) (fst hits.(j))) order;
  let prefix = Statevector.create n_qubits in
  let starts = Array.make trials prefix in
  let pos = ref 0 in
  Array.iteri
    (fun k i ->
      let at = fst hits.(i) in
      if k > 0 && fst hits.(order.(k - 1)) = at then starts.(i) <- starts.(order.(k - 1))
      else begin
        while !pos < at do
          apply_unitary prefix plan.(!pos);
          incr pos
        done;
        if at < len then starts.(i) <- Statevector.copy prefix
      end)
    order;
  let clean = if !pos = len then Statevector.fidelity ideal prefix else nan in
  (* The continuation: apply the hit the scan drew, then resume after it
     with the generator where the scan left it. *)
  let fidelities =
    Pool.mapi_array
      (fun i trial_rng ->
        let at, u = hits.(i) in
        if at = len then clean
        else begin
          let cache = Domain.DLS.get trajectory_state in
          let state =
            match !cache with
            | Some (n, st) when n = n_qubits -> st
            | _ ->
              let st = Statevector.create n_qubits in
              cache := Some (n_qubits, st);
              st
          in
          Statevector.blit ~src:starts.(i) ~dst:state;
          apply_pauli state u plan.(at);
          replay plan ~from:(if fault_prefix_resume then at else at + 1) trial_rng state;
          Statevector.fidelity ideal state
        end)
      seeds
  in
  let total = ref 0.0 in
  Array.iter (fun f -> total := !total +. f) fidelities;
  !total /. float_of_int trials
