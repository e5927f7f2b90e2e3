(* Cross-cutting properties every (device, circuit, algorithm) combination
   must satisfy — the compiler's contract, enforced over randomized
   inputs. *)
open Helpers
open Fastsc_device
open Fastsc_core

let random_topology rng =
  match Rng.int rng 5 with
  | 0 -> Topology.grid 3 3
  | 1 -> Topology.grid 2 4
  | 2 -> Topology.path 8
  | 3 -> Topology.express_1d 8 3
  | _ -> Topology.ring 8

let random_circuit rng n =
  let b = Circuit.builder n in
  for _ = 1 to 4 + Rng.int rng 18 do
    match Rng.int rng 6 with
    | 0 -> Circuit.add b Gate.H [ Rng.int rng n ]
    | 1 -> Circuit.add b (Gate.Rz (Rng.float rng)) [ Rng.int rng n ]
    | 2 | 3 ->
      let a = Rng.int rng n in
      Circuit.add b Gate.Cnot [ a; (a + 1 + Rng.int rng (n - 1)) mod n ]
    | 4 ->
      let a = Rng.int rng n in
      Circuit.add b Gate.Cz [ a; (a + 1 + Rng.int rng (n - 1)) mod n ]
    | _ ->
      let a = Rng.int rng n in
      Circuit.add b Gate.Swap [ a; (a + 1 + Rng.int rng (n - 1)) mod n ]
  done;
  Circuit.finish b

let scenario seed =
  let rng = Rng.create seed in
  let topology = random_topology rng in
  let device = Device.create ~seed:(Rng.int rng 100_000) topology in
  let circuit = random_circuit rng (Device.n_qubits device) in
  let algorithm =
    List.nth Compile.extended_algorithms
      (Rng.int rng (List.length Compile.extended_algorithms))
  in
  (device, circuit, algorithm)

let prop name f = prop_case ~count:40 name (int_range 1 1_000_000) f

let prop_schedule_always_checks =
  prop "every schedule passes Schedule.check" (fun seed ->
      let device, circuit, algorithm = scenario seed in
      Result.is_ok (Schedule.check (Compile.run algorithm device circuit)))

let prop_gate_count_preserved =
  prop "scheduling never loses or duplicates gates" (fun seed ->
      let device, circuit, algorithm = scenario seed in
      let native = Compile.prepare Pass.default_options device circuit in
      let schedule = Compile.schedule_native Pass.default_options algorithm device native in
      Schedule.n_gates schedule = Circuit.length native)

let prop_metrics_well_formed =
  prop "metrics stay in range" (fun seed ->
      let device, circuit, algorithm = scenario seed in
      let m = Schedule.evaluate (Compile.run algorithm device circuit) in
      m.Schedule.success >= 0.0
      && m.Schedule.success <= 1.0
      && m.Schedule.gate_error >= 0.0
      && m.Schedule.gate_error <= 1.0
      && m.Schedule.crosstalk_error >= 0.0
      && m.Schedule.crosstalk_error <= 1.0
      && m.Schedule.decoherence_error >= 0.0
      && m.Schedule.decoherence_error <= 1.0
      && m.Schedule.total_time >= 0.0)

let prop_no_frequency_in_exclusion =
  prop "no operating frequency inside the exclusion band" (fun seed ->
      let device, circuit, algorithm = scenario seed in
      let schedule = Compile.run algorithm device circuit in
      let p = Device.partition device in
      List.for_all
        (fun step ->
          Array.for_all
            (fun f ->
              not
                (f > p.Partition.exclusion_lo +. 1e-9
                && f < p.Partition.exclusion_hi -. 1e-9
                (* CZ partners sit |alpha| below their color, still above
                   the exclusion band thanks to the reserved margin *)
                ))
            step.Schedule.freqs)
        schedule.Schedule.steps)

let prop_idle_qubits_parked =
  prop "non-interacting qubits hold their idle frequency" (fun seed ->
      let device, circuit, algorithm = scenario seed in
      let schedule = Compile.run algorithm device circuit in
      List.for_all
        (fun step ->
          let active = Array.make (Device.n_qubits device) false in
          List.iter
            (fun (a, b) ->
              active.(a) <- true;
              active.(b) <- true)
            step.Schedule.interacting;
          Array.for_all Fun.id
            (Array.mapi
               (fun q f ->
                 active.(q) || Float.abs (f -. schedule.Schedule.idle_freqs.(q)) < 1e-9)
               step.Schedule.freqs))
        schedule.Schedule.steps)

let prop_semantics_preserved_small =
  prop_case ~count:15 "scheduled gate order is execution-equivalent"
    (int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let device = Device.create ~seed:(Rng.int rng 100_000) (Topology.grid 2 2) in
      let circuit = random_circuit rng 4 in
      let native = Compile.prepare Pass.default_options device circuit in
      let algorithm =
        List.nth Compile.all_algorithms (Rng.int rng (List.length Compile.all_algorithms))
      in
      let schedule = Compile.schedule_native Pass.default_options algorithm device native in
      (* flatten the schedule back to a circuit: it must act as the same
         unitary as the native circuit (scheduling only reorders commuting
         gates) *)
      let flattened =
        Circuit.of_gates 4
          (List.concat_map
             (fun step ->
               List.map
                 (fun app -> (app.Gate.gate, Array.to_list app.Gate.qubits))
                 step.Schedule.gates)
             schedule.Schedule.steps)
      in
      Unitary.equivalent native flattened)

let prop_waveforms_always_check =
  prop "pulse lowering always validates" (fun seed ->
      let device, circuit, algorithm = scenario seed in
      let schedule = Compile.run algorithm device circuit in
      Result.is_ok (Control.check schedule (Control.lower schedule)))

let prop_export_well_formed =
  prop "JSON export is structurally sound" (fun seed ->
      let device, circuit, algorithm = scenario seed in
      let schedule = Compile.run algorithm device circuit in
      let text = Export.to_string (Export.bundle ~include_waveforms:false schedule) in
      (* balanced structure check borrowed from the json tests *)
      let depth = ref 0 and in_string = ref false and escaped = ref false and ok = ref true in
      String.iter
        (fun c ->
          if !in_string then begin
            if !escaped then escaped := false
            else if c = '\\' then escaped := true
            else if c = '"' then in_string := false
          end
          else
            match c with
            | '"' -> in_string := true
            | '{' | '[' -> incr depth
            | '}' | ']' ->
              decr depth;
              if !depth < 0 then ok := false
            | _ -> ())
        text;
      !ok && !depth = 0)

let suite =
  [
    prop_schedule_always_checks;
    prop_gate_count_preserved;
    prop_metrics_well_formed;
    prop_no_frequency_in_exclusion;
    prop_idle_qubits_parked;
    prop_semantics_preserved_small;
    prop_waveforms_always_check;
    prop_export_well_formed;
  ]
