open Helpers
open Fastsc_device
open Fastsc_core

let device () = Device.create ~seed:2020 (Topology.grid 3 3)

let find_2q_step schedule =
  List.find
    (fun step ->
      List.exists (fun g -> Gate.is_two_qubit g.Gate.gate) step.Schedule.gates)
    schedule.Schedule.steps

let test_colordynamic_gate_audits_clean () =
  let d = device () in
  let circuit = Circuit.of_gates 9 [ (Gate.Iswap, [ 0; 1 ]); (Gate.Iswap, [ 7; 8 ]) ] in
  let schedule = Compile.schedule_native Pass.default_options Compile.Color_dynamic d circuit in
  let step = find_2q_step schedule in
  let audits = Leakage_audit.audit_step d step in
  check_true "audited something" (audits <> []);
  List.iter
    (fun audit ->
      check_true "intended transfer high" (audit.Leakage_audit.intended_transfer > 0.9);
      check_true "spectators quiet" (audit.Leakage_audit.spectator_pickup < 0.05);
      check_true "low leakage" (audit.Leakage_audit.leakage < 0.05))
    audits

let test_naive_parallel_collision_detected () =
  (* two adjacent iSWAPs at the same frequency: the Fig 6 collision *)
  let d = device () in
  let circuit = Circuit.of_gates 9 [ (Gate.Iswap, [ 0; 1 ]); (Gate.Iswap, [ 2; 5 ]) ] in
  let naive = Compile.schedule_native Pass.default_options Compile.Naive d circuit in
  let cd = Compile.schedule_native Pass.default_options Compile.Color_dynamic d circuit in
  let worst s =
    match Leakage_audit.worst_of (Leakage_audit.audit_step d (find_2q_step s)) with
    | Some (pickup, _) -> pickup
    | None -> Alcotest.fail "no audits"
  in
  let naive_pickup = worst naive and cd_pickup = worst cd in
  check_true "naive collision visible" (naive_pickup > 0.1);
  check_true "colordynamic cleaner" (cd_pickup < naive_pickup /. 4.0)

let test_cz_round_trip () =
  let d = device () in
  let circuit = Circuit.of_gates 9 [ (Gate.Cz, [ 3; 4 ]) ] in
  let schedule = Compile.schedule_native Pass.default_options Compile.Color_dynamic d circuit in
  let step = find_2q_step schedule in
  match Leakage_audit.audit_step d step with
  | [ audit ] ->
    check_true "back to |11>" (audit.Leakage_audit.intended_transfer > 0.85);
    check_true "leakage returned" (audit.Leakage_audit.leakage < 0.15)
  | _ -> Alcotest.fail "expected exactly one audit"

let test_subsystem_capped () =
  let d = device () in
  let circuit = Circuit.of_gates 9 [ (Gate.Iswap, [ 4; 1 ]) ] in
  let schedule = Compile.schedule_native Pass.default_options Compile.Color_dynamic d circuit in
  let step = find_2q_step schedule in
  let audit =
    Leakage_audit.audit_gate ~max_spectators:2 d step
      (List.find (fun g -> Gate.is_two_qubit g.Gate.gate) step.Schedule.gates)
  in
  check_int "pair + 2 spectators" 4 (List.length audit.Leakage_audit.subsystem)

let test_audit_rejects_foreign_gate () =
  let d = device () in
  let circuit = Circuit.of_gates 9 [ (Gate.Iswap, [ 0; 1 ]) ] in
  let schedule = Compile.schedule_native Pass.default_options Compile.Color_dynamic d circuit in
  let step = find_2q_step schedule in
  let foreign = { Gate.id = 999; gate = Gate.Cz; qubits = [| 7; 8 |] } in
  check_true "foreign gate rejected"
    (try
       ignore (Leakage_audit.audit_gate d step foreign);
       false
     with Invalid_argument _ -> true)

let test_worst_of () =
  check_true "empty" (Leakage_audit.worst_of [] = None)

let suite =
  [
    Alcotest.test_case "colordynamic audits clean" `Slow test_colordynamic_gate_audits_clean;
    Alcotest.test_case "naive collision detected" `Slow test_naive_parallel_collision_detected;
    Alcotest.test_case "cz round trip" `Slow test_cz_round_trip;
    Alcotest.test_case "subsystem capped" `Quick test_subsystem_capped;
    Alcotest.test_case "foreign gate rejected" `Quick test_audit_rejects_foreign_gate;
    Alcotest.test_case "worst_of empty" `Quick test_worst_of;
  ]
