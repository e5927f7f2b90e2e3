let static_assignment ?(crosstalk_distance = 1) device =
  let xg = Crosstalk_graph.build ~distance:crosstalk_distance (Device.graph device) in
  let coloring = Coloring.welsh_powell xg.Crosstalk_graph.graph in
  let n_colors = Coloring.n_colors coloring in
  let multiplicity = Array.make n_colors 0 in
  Array.iter (fun c -> multiplicity.(c) <- multiplicity.(c) + 1) coloring;
  let assignment = Freq_alloc.interaction device ~n_colors ~multiplicity in
  let freq_of_pair pair =
    let v = Crosstalk_graph.vertex_of_pair xg pair in
    assignment.Freq_alloc.freqs.(coloring.(v))
  in
  (freq_of_pair, n_colors)

let run ~crosstalk_distance device circuit =
  let idle_freqs = Freq_alloc.idle_per_qubit device in
  let freq_of_pair, _ = static_assignment ~crosstalk_distance device in
  let freq_of_gate app =
    match app.Gate.qubits with
    | [| a; b |] -> freq_of_pair (a, b)
    | _ -> assert false
  in
  let steps =
    List.map
      (fun layer -> Step_builder.make device ~idle_freqs ~freq_of_gate layer)
      (Layers.slice circuit)
  in
  {
    Schedule.device;
    algorithm = "baseline-s";
    steps;
    idle_freqs;
    coupler = Schedule.Fixed_coupler;
  }
