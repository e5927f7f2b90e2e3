let run device circuit =
  let idle_freqs = Freq_alloc.idle_per_qubit device in
  let omega_int = Step_builder.interaction_center device in
  let pending = Pending.create circuit in
  let steps = ref [] in
  while not (Pending.is_empty pending) do
    let busy = ref false in
    let accept app =
      match app.Gate.qubits with
      | [| _; _ |] ->
        (* single shared frequency: at most one two-qubit gate per step,
           anywhere on the device (Table I's "serial scheduler") *)
        let ok = not !busy in
        busy := true;
        ok
      | _ -> true
    in
    let gates = Pending.select pending ~accept in
    assert (gates <> []);
    List.iter (Pending.schedule pending) gates;
    steps :=
      Step_builder.make device ~idle_freqs ~freq_of_gate:(fun _ -> omega_int) gates :: !steps
  done;
  {
    Schedule.device;
    algorithm = "baseline-u";
    steps = List.rev !steps;
    idle_freqs;
    coupler = Schedule.Fixed_coupler;
  }
