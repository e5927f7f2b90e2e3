let run device circuit =
  let idle_freqs = Freq_alloc.idle_per_qubit device in
  let omega_int = Step_builder.interaction_center device in
  let steps =
    List.map
      (fun layer ->
        Step_builder.make device ~idle_freqs ~freq_of_gate:(fun _ -> omega_int) layer)
      (Layers.slice circuit)
  in
  {
    Schedule.device;
    algorithm = "baseline-n";
    steps;
    idle_freqs;
    coupler = Schedule.Fixed_coupler;
  }
