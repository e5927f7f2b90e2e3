let run ?(crosstalk_distance = 1) device circuit =
  let idle_freqs = Freq_alloc.idle_per_qubit device in
  let omega_int = Step_builder.interaction_center device in
  let xg = Crosstalk_graph.build ~distance:crosstalk_distance (Device.graph device) in
  let pending = Pending.create circuit in
  let steps = ref [] in
  while not (Pending.is_empty pending) do
    let active = ref [] in
    let accept app =
      match app.Gate.qubits with
      | [| a; b |] ->
        (* single shared frequency: at most one two-qubit gate per step
           anywhere within crosstalk range — on connected devices this
           serializes two-qubit gates completely (Table I's "serial
           scheduler") *)
        let v = Crosstalk_graph.vertex_of_pair xg (a, b) in
        if !active = [] && Crosstalk_graph.conflict_count xg v !active = 0 then begin
          active := v :: !active;
          true
        end
        else false
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
