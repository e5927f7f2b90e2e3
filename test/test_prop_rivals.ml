(* Property suites for the rival-compiler zoo (ISSUE 9 satellites): legal
   interleaving (no two simultaneous gates share a qubit — part of
   Schedule.check), murali-delay output unitarily equivalent to its input,
   and cqc-synergy routed circuits respecting connectivity on a zoo of
   topologies. *)
open Helpers
open Fastsc_device
open Fastsc_core

(* All-to-all device: murali-delay consumes native circuits directly, so an
   all-to-all coupling lets random logical circuits schedule without any
   routing step in between. *)
let complete4 = lazy (Device.create ~seed:11 (Topology.complete 4))

let small_circuits = circuit ~max_qubits:4 ~max_gates:12 ()

let flatten_schedule n sched =
  (* steps in order; within a step gates act on disjoint qubits (checked
     separately), so any within-step order yields the same operator *)
  Circuit.of_gates n
    (List.concat_map
       (fun step ->
         List.map
           (fun app -> (app.Gate.gate, Array.to_list app.Gate.qubits))
           step.Schedule.gates)
       sched.Schedule.steps)

let prop_murali_preserves_unitary =
  prop_case ~count:60 "murali-delay schedule is unitarily equivalent to its input"
    small_circuits (fun c ->
      let d = Lazy.force complete4 in
      let native = Decompose.run Decompose.Hybrid c in
      let sched, _delayed = Murali_delay.pack ~algorithm:"murali-delay" d native in
      Result.is_ok (Schedule.check sched)
      && Schedule.n_gates sched = Circuit.length native
      && equal_up_to_phase
           (circuit_unitary (flatten_schedule (Circuit.n_qubits native) sched))
           (circuit_unitary native))

let prop_murali_legal_interleaving =
  prop_case ~count:60 "murali-delay steps are qubit-disjoint" small_circuits (fun c ->
      let d = Lazy.force complete4 in
      let sched, _ =
        Murali_delay.pack ~algorithm:"murali-delay" d (Decompose.run Decompose.Hybrid c)
      in
      List.for_all
        (fun step ->
          let qubits =
            List.concat_map
              (fun app -> Array.to_list app.Gate.qubits)
              step.Schedule.gates
          in
          List.length qubits = List.length (List.sort_uniq compare qubits))
        sched.Schedule.steps)

(* The topology zoo for routing properties: connected graphs of assorted
   shapes, all at least 4 vertices so any generated circuit fits. *)
let topologies =
  lazy
    [|
      Topology.grid 2 2;
      Topology.grid 2 3;
      Topology.grid 3 3;
      Topology.ring 5;
      Topology.ring 8;
      Topology.path 6;
      Topology.heavy_hex 1 1;
      Topology.octagonal 1 1;
    |]

let widen device circuit =
  let n = Graph.n_vertices (Device.graph device) in
  let b = Circuit.builder n in
  Array.iter
    (fun app -> Circuit.add b app.Gate.gate (Array.to_list app.Gate.qubits))
    (Circuit.instructions circuit);
  Circuit.finish b

let topology_and_circuit =
  QCheck.pair (int_range 0 (Array.length (Lazy.force topologies) - 1)) small_circuits

let prop_cqc_respects_connectivity =
  prop_case ~count:50 "cqc-synergy routing respects connectivity on the topology zoo"
    topology_and_circuit (fun (i, c) ->
      let topo = (Lazy.force topologies).(i) in
      let d = Device.create ~seed:2020 topo in
      let result, _ = Cqc_synergy.route d (widen d c) in
      Mapping.verify (Device.graph d) result.Mapping.circuit)

let prop_cqc_schedule_legal =
  prop_case ~count:30 "cqc-synergy full run yields a valid, qubit-disjoint schedule"
    topology_and_circuit (fun (i, c) ->
      let topo = (Lazy.force topologies).(i) in
      let d = Device.create ~seed:2020 topo in
      let sched, _stats = Cqc_synergy.run d (widen d c) in
      Result.is_ok (Schedule.check sched))

let suite =
  [
    prop_murali_preserves_unitary;
    prop_murali_legal_interleaving;
    prop_cqc_respects_connectivity;
    prop_cqc_schedule_legal;
  ]
