open Fastsc_physics

type step = {
  gates : Gate.application list;
  freqs : float array;
  interacting : (int * int) list;
  duration : float;
}

type coupler_model = Fixed_coupler | Tunable_coupler of float

type t = {
  device : Device.t;
  algorithm : string;
  steps : step list;
  idle_freqs : float array;
  coupler : coupler_model;
}

let depth t = List.length t.steps

let total_time t = List.fold_left (fun acc s -> acc +. s.duration) 0.0 t.steps

let n_gates t = List.fold_left (fun acc s -> acc + List.length s.gates) 0 t.steps

let n_two_qubit_gates t =
  List.fold_left
    (fun acc s ->
      acc + List.length (List.filter (fun g -> Gate.is_two_qubit g.Gate.gate) s.gates))
    0 t.steps

let used_qubits t =
  let used = Array.make (Device.n_qubits t.device) false in
  List.iter
    (fun step ->
      List.iter
        (fun app -> Array.iter (fun q -> used.(q) <- true) app.Gate.qubits)
        step.gates)
    t.steps;
  let acc = ref [] in
  for q = Array.length used - 1 downto 0 do
    if used.(q) then acc := q :: !acc
  done;
  !acc

type metrics = {
  success : float;
  log10_success : float;
  gate_error : float;
  crosstalk_error : float;
  decoherence_error : float;
  log10_gate_survival : float;
  log10_crosstalk_survival : float;
  log10_decoherence_survival : float;
  depth : int;
  total_time : float;
  n_gates : int;
  n_two_qubit : int;
}

let pair_interacting step (a, b) =
  List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) step.interacting

let pair_coupling t step (a, b) =
  let g0 = (Device.params t.device).Device.g0 in
  match t.coupler with
  | Fixed_coupler -> g0
  | Tunable_coupler eta -> if pair_interacting step (a, b) then g0 else eta *. g0

(* Flux-noise frequency jitter of qubit [q] operating at [freq]: the
   transmon's flux sensitivity at that operating point times the flux noise.
   Finding the operating point inverts the flux curve by bisection, which is
   why evaluation memoizes this per (qubit, frequency) — see [memo]. *)
let jitter device q freq =
  let tr = Device.transmon device q in
  let freq_clamped = Float.max tr.Transmon.omega_min (Float.min tr.Transmon.omega_max freq) in
  let flux = Transmon.flux_for_freq tr freq_clamped in
  let sensitivity = Transmon.flux_sensitivity tr ~flux in
  sensitivity *. (Device.params device).Device.flux_noise

(* Control error of [duration] ns at that jitter, accumulated as a coherent
   phase error. *)
let flux_error ~jitter ~duration =
  let phase = 2.0 *. Float.pi *. jitter *. duration in
  Float.min 0.5 (phase *. phase /. 4.0)

(* Spectator partners of a two-qubit gate on (a, b): every other qubit
   coupled (or, at distance 2, parasitically coupled) to one of its
   operands.  Per eq 4, crosstalk is charged per gate over its spectator
   couplings — the residual exchange between two {e parked} qubits is a
   bounded coherent oscillation at large detuning and is not accumulated. *)
let spectators t ~crosstalk_distance (a, b) =
  let n = Device.n_qubits t.device in
  let acc = ref [] in
  for y = 0 to n - 1 do
    if y <> a && y <> b then begin
      let consider x =
        let g = Device.coupling t.device x y in
        let distance_ok =
          g > 0.0
          && (crosstalk_distance >= 2 || g >= (Device.params t.device).Device.g0)
        in
        if distance_ok then acc := (x, y) :: !acc
      in
      consider a;
      consider b
    end
  done;
  !acc

(* The repeated work of one evaluation, done once per distinct key.  A
   schedule parks each qubit at one idle frequency and drives it at a few
   interaction frequencies, so the jitter table holds a handful of entries
   per qubit where the steps ask for it once per gate operand; the
   spectator list of a gate depends only on its ordered operand pair, where
   computing it scans every device qubit.  The tables belong to one
   [evaluate] or [step_errors] call: their keys (exact frequency, ordered
   pair) fix their values within it, so a hit returns exactly what the
   computation would, and nothing outlives the call — no lock, no size
   bound, no state shared between domains. *)
type memo = {
  jitters : (float * float) list array;  (* per qubit: (frequency, jitter) *)
  spectator_lists : (int * (int * int) list) list array;
      (* per first operand a: (second operand b, spectators of (a, b)) *)
}

let memo_create t =
  let n = Device.n_qubits t.device in
  { jitters = Array.make n []; spectator_lists = Array.make n [] }

let memo_jitter memo device q freq =
  let rec find = function
    | (f, j) :: rest -> if Float.equal f freq then j else find rest
    | [] ->
      let j = jitter device q freq in
      memo.jitters.(q) <- (freq, j) :: memo.jitters.(q);
      j
  in
  find memo.jitters.(q)

let memo_spectators memo t ~crosstalk_distance a b =
  let rec find = function
    | (b', s) :: rest -> if b' = b then s else find rest
    | [] ->
      let s = spectators t ~crosstalk_distance (a, b) in
      memo.spectator_lists.(a) <- (b, s) :: memo.spectator_lists.(a);
      s
  in
  find memo.spectator_lists.(a)

(* Fold one step's gate-control and crosstalk error terms into the
   accumulators — shared by whole-schedule evaluation and the per-step
   error budget. *)
let accumulate_step t memo ~worst_case ~crosstalk_distance gate_acc xtalk_acc step =
  let params = Device.params t.device in
  let alpha q = Transmon.anharmonicity (Device.transmon t.device q) in
  List.iter
    (fun app ->
      (* Control error of the intended gate. *)
      let base =
        if Gate.is_two_qubit app.Gate.gate then params.Device.base_error_2q
        else params.Device.base_error_1q
      in
      Success.add_error gate_acc base;
      Array.iter
        (fun q ->
          let jitter = memo_jitter memo t.device q step.freqs.(q) in
          Success.add_error gate_acc (flux_error ~jitter ~duration:step.duration))
        app.Gate.qubits;
      (* Crosstalk of a two-qubit gate through its spectator couplings
         (eq 6 generalised to all resonance channels). *)
      match app.Gate.qubits with
      | [| a; b |] ->
        List.iter
          (fun (x, y) ->
            if not (pair_interacting step (x, y)) then begin
              (* direct couplings go through the (possibly deactivated)
                 coupler; parasitic distance-2 coupling bypasses it *)
              let direct = Device.coupling t.device x y in
              let g =
                if direct >= params.Device.g0 then pair_coupling t step (x, y) else direct
              in
              if g > 0.0 then
                Success.add_error xtalk_acc
                  (Crosstalk.pair_error ~worst_case ~alpha_a:(alpha x) ~alpha_b:(alpha y)
                     ~g ~omega_a:step.freqs.(x) ~omega_b:step.freqs.(y) ~t:step.duration ())
            end)
          (memo_spectators memo t ~crosstalk_distance a b)
      | _ -> ())
    step.gates

let step_errors ?(worst_case = false) ?(crosstalk_distance = 1) t step =
  let gate_acc = Success.create () in
  let xtalk_acc = Success.create () in
  accumulate_step t (memo_create t) ~worst_case ~crosstalk_distance gate_acc xtalk_acc step;
  (1.0 -. Success.probability gate_acc, 1.0 -. Success.probability xtalk_acc)

(* Seeded fault for the verification harness (docs/DESIGN.md §11). *)
let fault_xtalk_drop = Fault.enabled "sched-xtalk-drop"

let evaluate ?(worst_case = false) ?(crosstalk_distance = 1)
    ?(decoherence = Decoherence.Exponential) ?coherence t =
  let gate_acc = Success.create () in
  let xtalk_acc = Success.create () in
  let dec_acc = Success.create () in
  let memo = memo_create t in
  List.iter (accumulate_step t memo ~worst_case ~crosstalk_distance gate_acc xtalk_acc) t.steps;
  let xtalk_acc = if fault_xtalk_drop then Success.create () else xtalk_acc in
  let duration = total_time t in
  let qubit_coherence =
    match coherence with
    | Some f -> f
    | None -> fun q -> (Device.t1 t.device q, Device.t2 t.device q)
  in
  (* only qubits that ever carry program state decohere it; spare device
     qubits sit in |0> where T1 decay and dephasing are harmless *)
  List.iter
    (fun q ->
      let t1, t2 = qubit_coherence q in
      Success.add_error dec_acc (Decoherence.error ~model:decoherence ~t1 ~t2 ~t:duration ()))
    (used_qubits t);
  let total = Success.combine gate_acc (Success.combine xtalk_acc dec_acc) in
  {
    success = Success.probability total;
    log10_success = Success.log10_probability total;
    gate_error = 1.0 -. Success.probability gate_acc;
    crosstalk_error = 1.0 -. Success.probability xtalk_acc;
    decoherence_error = 1.0 -. Success.probability dec_acc;
    log10_gate_survival = Success.log10_probability gate_acc;
    log10_crosstalk_survival = Success.log10_probability xtalk_acc;
    log10_decoherence_survival = Success.log10_probability dec_acc;
    depth = depth t;
    total_time = duration;
    n_gates = n_gates t;
    n_two_qubit = n_two_qubit_gates t;
  }

let resonance_ok device step (a, b) =
  (* The pair must carry a two-qubit gate whose resonance condition the
     frequencies satisfy. *)
  let tol = 1e-6 in
  let gate =
    List.find_opt
      (fun app ->
        Gate.is_two_qubit app.Gate.gate
        && (app.Gate.qubits = [| a; b |] || app.Gate.qubits = [| b; a |]))
      step.gates
  in
  match gate with
  | None -> Error (Printf.sprintf "interacting pair (%d,%d) has no two-qubit gate" a b)
  | Some app ->
    let fa = step.freqs.(a) and fb = step.freqs.(b) in
    let alpha q = Transmon.anharmonicity (Device.transmon device q) in
    let ok =
      match app.Gate.gate with
      | Gate.Iswap | Gate.Sqrt_iswap | Gate.Xy _ -> Float.abs (fa -. fb) < tol
      | Gate.Cz ->
        Float.abs (fa +. alpha a -. fb) < tol || Float.abs (fb +. alpha b -. fa) < tol
      | _ -> false
    in
    if ok then Ok ()
    else
      Error
        (Printf.sprintf "pair (%d,%d) not on %s resonance (%.4f vs %.4f)" a b
           (Gate.name app.Gate.gate) fa fb)

let check t =
  let n = Device.n_qubits t.device in
  let graph = Device.graph t.device in
  let exception Bad of string in
  try
    List.iteri
      (fun i step ->
        let fail msg = raise (Bad (Printf.sprintf "step %d: %s" i msg)) in
        if Array.length step.freqs <> n then fail "frequency array size mismatch";
        if step.duration <= 0.0 then fail "non-positive duration";
        (* qubit-disjointness *)
        let used = Array.make n false in
        List.iter
          (fun app ->
            Array.iter
              (fun q ->
                if used.(q) then fail (Printf.sprintf "qubit %d used twice" q);
                used.(q) <- true)
              app.Gate.qubits;
            if not (Gate.is_native app.Gate.gate) then
              fail (Printf.sprintf "non-native gate %s" (Gate.name app.Gate.gate));
            match app.Gate.qubits with
            | [| a; b |] ->
              if not (Graph.mem_edge graph a b) then
                fail (Printf.sprintf "gate on uncoupled pair (%d,%d)" a b);
              if not (pair_interacting step (a, b)) then
                fail (Printf.sprintf "two-qubit gate on (%d,%d) not marked interacting" a b)
            | _ -> ())
          step.gates;
        List.iter
          (fun (a, b) ->
            if not (Graph.mem_edge graph a b) then
              fail (Printf.sprintf "interacting pair (%d,%d) is not a coupling" a b);
            match resonance_ok t.device step (a, b) with
            | Ok () -> ()
            | Error msg -> fail msg)
          step.interacting;
        for q = 0 to n - 1 do
          let lo, hi = Device.tunable_range t.device q in
          let f = step.freqs.(q) in
          if f < lo -. 1e-9 || f > hi +. 1e-9 then
            fail (Printf.sprintf "qubit %d at %.4f outside tunable range [%.4f, %.4f]" q f lo hi)
        done)
      t.steps;
    Ok ()
  with Bad msg -> Error msg

let to_noisy_steps ?(crosstalk_distance = 1) t =
  let coupled = Device.coupled_pairs t.device in
  let parasitic = if crosstalk_distance >= 2 then Device.distance2_pairs t.device else [] in
  let params = Device.params t.device in
  let alpha q = Transmon.anharmonicity (Device.transmon t.device q) in
  List.map
    (fun step ->
      let unitaries =
        List.map
          (fun app ->
            Fastsc_quantum.Noisy_sim.Unitary (app.Gate.gate, Array.to_list app.Gate.qubits))
          step.gates
      in
      let exchange (a, b) g =
        if g <= 0.0 then None
        else begin
          (* Only the computational 01-01 channel is representable on qubits;
             leakage channels need the qutrit model of Fastsc_physics. *)
          let delta = Float.abs (step.freqs.(a) -. step.freqs.(b)) in
          let p = Crosstalk.transfer_probability ~g ~delta ~t:step.duration in
          ignore (alpha a);
          if p < 1e-15 then None
          else
            Some
              (Fastsc_quantum.Noisy_sim.Partial_exchange
                 { a; b; theta = asin (sqrt (Float.min 1.0 p)) })
        end
      in
      let spectator_exchanges =
        List.filter_map
          (fun (a, b) ->
            if pair_interacting step (a, b) then None
            else exchange (a, b) (pair_coupling t step (a, b)))
          coupled
        @ List.filter_map
            (fun (a, b) -> exchange (a, b) (params.Device.parasitic_ratio *. params.Device.g0))
            parasitic
      in
      let pauli_noise =
        List.init (Device.n_qubits t.device) (fun q ->
            let p_x, p_y, p_z =
              Decoherence.pauli_rates ~t1:(Device.t1 t.device q) ~t2:(Device.t2 t.device q)
                ~t:step.duration
            in
            Fastsc_quantum.Noisy_sim.Pauli_noise { q; p_x; p_y; p_z })
      in
      unitaries @ spectator_exchanges @ pauli_noise)
    t.steps

let flux_profile t q =
  let tr = Device.transmon t.device q in
  List.map
    (fun step ->
      let f =
        Float.max tr.Transmon.omega_min (Float.min tr.Transmon.omega_max step.freqs.(q))
      in
      Transmon.flux_for_freq tr f)
    t.steps

let pp_step device fmt step =
  Format.fprintf fmt "@[<v2>step (%.1f ns):@," step.duration;
  List.iter
    (fun app ->
      Format.fprintf fmt "%s %s@," (Gate.name app.Gate.gate)
        (String.concat "," (List.map string_of_int (Array.to_list app.Gate.qubits))))
    step.gates;
  Format.fprintf fmt "freqs:";
  Array.iteri
    (fun q f -> if q < Device.n_qubits device then Format.fprintf fmt " %d:%.3f" q f)
    step.freqs;
  Format.fprintf fmt "@]"

let pp_summary fmt t =
  Format.fprintf fmt "%s schedule: %d steps, %.1f ns, %d gates (%d two-qubit)" t.algorithm
    (depth t) (total_time t) (n_gates t) (n_two_qubit_gates t)
