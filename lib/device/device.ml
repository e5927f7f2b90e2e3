type params = {
  omega_max_mean : float;
  omega_min_mean : float;
  omega_sigma : float;
  anharmonicity : float;
  g0 : float;
  parasitic_ratio : float;
  t1_mean : float;
  t2_mean : float;
  coherence_sigma : float;
  single_qubit_time : float;
  flux_tuning_time : float;
  base_error_1q : float;
  base_error_2q : float;
  flux_noise : float;
}

let default_params =
  {
    omega_max_mean = 7.0;
    omega_min_mean = 5.0;
    omega_sigma = 0.1;
    anharmonicity = 0.2;
    g0 = 0.007;
    parasitic_ratio = 0.05;
    t1_mean = 6_000.0;
    t2_mean = 4_500.0;
    coherence_sigma = 0.1;
    single_qubit_time = 25.0;
    flux_tuning_time = 2.0;
    base_error_1q = 5e-4;
    base_error_2q = 2e-3;
    flux_noise = 1e-5;
  }

let preset = function
  | `Early_nisq -> default_params
  | `Sycamore_era ->
    {
      default_params with
      g0 = 0.010;
      t1_mean = 15_000.0;
      t2_mean = 10_000.0;
      base_error_1q = 2e-4;
      base_error_2q = 1e-3;
    }
  | `Modern ->
    {
      default_params with
      omega_sigma = 0.05;
      g0 = 0.010;
      t1_mean = 100_000.0;
      t2_mean = 60_000.0;
      base_error_1q = 1e-4;
      base_error_2q = 5e-4;
      flux_noise = 5e-6;
    }

type qubit = { transmon : Transmon.t; t1 : float; t2 : float }

type t = {
  params : params;
  topology : Topology.t;
  seed : int;
  qubits : qubit array;
  distances : int array array;
  common : float * float;  (** Intersection of every qubit's tunable range. *)
}

let create ?(params = default_params) ~seed topology =
  let rng = Rng.create seed in
  let n = Graph.n_vertices topology.Topology.graph in
  let sample_positive ~mean ~sigma =
    (* Clamp fabrication outliers at +-3 sigma to keep devices physical. *)
    let v = Rng.gaussian ~mean ~std:sigma rng in
    Float.max (mean -. (3.0 *. sigma)) (Float.min (mean +. (3.0 *. sigma)) v)
  in
  let qubits =
    Array.init n (fun _ ->
        let omega_max = sample_positive ~mean:params.omega_max_mean ~sigma:params.omega_sigma in
        let omega_min = sample_positive ~mean:params.omega_min_mean ~sigma:params.omega_sigma in
        let transmon =
          Transmon.create ~e_c:params.anharmonicity ~omega_max ~omega_min ()
        in
        let rel = params.coherence_sigma in
        let t1 = sample_positive ~mean:params.t1_mean ~sigma:(rel *. params.t1_mean) in
        let t2 = sample_positive ~mean:params.t2_mean ~sigma:(rel *. params.t2_mean) in
        { transmon; t1; t2 })
  in
  let distances = Paths.all_pairs topology.Topology.graph in
  let common =
    Array.fold_left
      (fun (lo, hi) qb ->
        (Float.max lo qb.transmon.Transmon.omega_min, Float.min hi qb.transmon.Transmon.omega_max))
      (neg_infinity, infinity) qubits
  in
  { params; topology; seed; qubits; distances; common }

let params t = t.params

let topology t = t.topology

let graph t = t.topology.Topology.graph

let n_qubits t = Array.length t.qubits

let seed t = t.seed

let distances t = t.distances

let check_qubit t q =
  if q < 0 || q >= n_qubits t then invalid_arg (Printf.sprintf "Device: qubit %d out of range" q)

let transmon t q =
  check_qubit t q;
  t.qubits.(q).transmon

let t1 t q =
  check_qubit t q;
  t.qubits.(q).t1

let t2 t q =
  check_qubit t q;
  t.qubits.(q).t2

let tunable_range t q =
  let tr = transmon t q in
  (tr.Transmon.omega_min, tr.Transmon.omega_max)

let common_range t = t.common

(* Split on every call, so a device whose common range is empty still builds
   and raises only when a partition is asked for. *)
let partition t =
  let lo, hi = t.common in
  Partition.make ~lo ~hi

let coupling t a b =
  check_qubit t a;
  check_qubit t b;
  if a = b then 0.0
  else
    match t.distances.(a).(b) with
    | 1 -> t.params.g0
    | 2 -> t.params.parasitic_ratio *. t.params.g0
    | _ -> 0.0

let gate_time t gate =
  let open Fastsc_quantum in
  let g = t.params.g0 in
  match gate with
  | Gate.Cz -> Coupled_pair.cz_time ~g +. t.params.flux_tuning_time
  | Gate.Iswap -> Coupled_pair.iswap_time ~g +. t.params.flux_tuning_time
  | Gate.Sqrt_iswap -> Coupled_pair.sqrt_iswap_time ~g +. t.params.flux_tuning_time
  | Gate.Xy theta ->
    (* exchange angle theta/2 at Rabi rate 2 pi g: hold for theta / (4 pi g),
       i.e. the iSWAP time scaled by theta / pi *)
    (Float.abs theta /. Float.pi *. Coupled_pair.iswap_time ~g) +. t.params.flux_tuning_time
  | Gate.Cnot | Gate.Swap ->
    invalid_arg "Device.gate_time: non-native gate (decompose first)"
  | _ -> t.params.single_qubit_time

let coupled_pairs t = Graph.edges (graph t)

let distance2_pairs t =
  let n = n_qubits t in
  let acc = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if t.distances.(a).(b) = 2 then acc := (a, b) :: !acc
    done
  done;
  List.rev !acc

let pp_summary fmt t =
  let lo, hi = common_range t in
  Format.fprintf fmt "device %s: %d qubits, %d couplings, range [%.3f, %.3f] GHz, g0 = %g GHz"
    t.topology.Topology.name (n_qubits t)
    (Graph.n_edges (graph t))
    lo hi t.params.g0
