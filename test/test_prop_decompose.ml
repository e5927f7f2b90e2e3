(* Property-based oracles for circuit rewriting: on random circuits over the
   full gate set, every decomposition strategy must produce native-only
   output that is unitary-equal to the input up to global phase (paper
   SV-B5), and the peephole optimizer must preserve semantics while never
   growing the circuit.  Qubit counts stay <= 3 so the 2^n x 2^n oracle
   matrices stay cheap. *)
open Helpers

let c_arb = circuit ~max_qubits:3 ~max_gates:6 ()

let all_native c =
  Array.for_all (fun app -> Gate.is_native app.Gate.gate) (Circuit.instructions c)

let strategies = [ Decompose.All_cz; Decompose.All_iswap; Decompose.Hybrid ]

let prop_decompose_native =
  prop_case ~count:30 "decomposition emits only native gates" c_arb (fun c ->
      List.for_all (fun strategy -> all_native (Decompose.run strategy c)) strategies)

let prop_decompose_preserves_unitary =
  prop_case ~count:30 "decomposition preserves the unitary" c_arb (fun c ->
      let u_ref = circuit_unitary c in
      List.for_all
        (fun strategy -> equal_up_to_phase (circuit_unitary (Decompose.run strategy c)) u_ref)
        strategies)

let prop_optimize_preserves_unitary =
  prop_case ~count:30 "peephole optimization preserves the unitary" c_arb (fun c ->
      let o = Optimize.run c in
      Circuit.length o <= Circuit.length c
      && equal_up_to_phase (circuit_unitary o) (circuit_unitary c))

let prop_decompose_then_optimize =
  prop_case ~count:20 "decompose + optimize composes soundly" c_arb (fun c ->
      let o = Optimize.run (Decompose.run Decompose.Hybrid c) in
      all_native o && equal_up_to_phase (circuit_unitary o) (circuit_unitary c))

let suite =
  [
    prop_decompose_native;
    prop_decompose_preserves_unitary;
    prop_optimize_preserves_unitary;
    prop_decompose_then_optimize;
  ]
